//! The declarative experiment registry.
//!
//! Every figure/table reproduction is one [`ExperimentPlan`]: an id, the
//! sweep axes it walks, the TSV schema it emits, and the run function that
//! produces it (the bodies live in [`crate::experiments`]). `fig_all <id>`
//! is the one entry point: it resolves ids through this table and runs
//! them in-process — adding an experiment means adding one entry here plus
//! its run function, not a new binary.

use crate::experiments;
use crate::scale;

/// One registered experiment.
pub struct ExperimentPlan {
    /// Stable id: the `fig_all` argument and the TSV basename
    /// (`results/<id>.tsv`).
    pub id: &'static str,
    /// One-line description (shown by `fig_all --list`).
    pub title: &'static str,
    /// The sweep axes the plan walks, human-readable.
    pub axes: &'static str,
    /// Columns of the emitted TSV, in order.
    pub columns: &'static [&'static str],
    /// Runs the experiment, writing stdout + `results/<id>.tsv`.
    pub run: fn(),
}

/// Every registered experiment, in canonical (fig_all) order.
pub const PLANS: &[ExperimentPlan] = &[
    ExperimentPlan {
        id: "table3",
        title: "Table 3: deployment daily averages (noise model on)",
        axes: "58 deployment days",
        columns: &["statistic", "value", "paper_value"],
        run: experiments::table3,
    },
    ExperimentPlan {
        id: "fig03",
        title: "Fig. 3: real (deployment emulation) vs simulation avg delay per day",
        axes: "day x {noisy run, RAPID_RUNS clean draws}",
        columns: &[
            "day",
            "real_avg_delay_min",
            "sim_avg_delay_min",
            "sim_ci95_min",
        ],
        run: experiments::fig03,
    },
    ExperimentPlan {
        id: "fig04_05",
        title: "Figs. 4-5 (Trace): avg delay / delivery rate vs load",
        axes: "load x {Rapid, MaxProp, SprayAndWait, Random}",
        columns: TRACE_SWEEP_COLUMNS,
        run: experiments::fig04_05,
    },
    ExperimentPlan {
        id: "fig06",
        title: "Fig. 6 (Trace): max delay vs load; RAPID metric = max delay",
        axes: "load x {Rapid(max), MaxProp, SprayAndWait, Random}",
        columns: TRACE_SWEEP_COLUMNS,
        run: experiments::fig06,
    },
    ExperimentPlan {
        id: "fig07",
        title: "Fig. 7 (Trace): delivery within 2.7h deadline vs load",
        axes: "load x {Rapid(deadline), MaxProp, SprayAndWait, Random}",
        columns: TRACE_SWEEP_COLUMNS,
        run: experiments::fig07,
    },
    ExperimentPlan {
        id: "fig08",
        title: "Fig. 8 (Trace): avg delay vs metadata cap",
        axes: "metadata cap fraction x load",
        columns: &[
            "metadata_cap_fraction",
            "load_per_dest_per_hour",
            "avg_delay_min",
            "delivery_rate",
            "metadata_over_bw",
        ],
        run: experiments::fig08,
    },
    ExperimentPlan {
        id: "fig09",
        title: "Fig. 9 (Trace): utilization / delivery / metadata-over-data vs load",
        axes: "load (RAPID only)",
        columns: &[
            "load_per_dest_per_hour",
            "channel_utilization",
            "delivery_rate",
            "metadata_over_data",
            "metadata_over_bw",
        ],
        run: experiments::fig09,
    },
    ExperimentPlan {
        id: "fig10_12",
        title: "Figs. 10-12 (Trace): in-band vs instant global control channel",
        axes: "load x {Rapid, Rapid-Global} x {avg, deadline}",
        columns: TRACE_SWEEP_COLUMNS,
        run: experiments::fig10_12,
    },
    ExperimentPlan {
        id: "fig13",
        title: "Fig. 13 (Trace): avg delay incl. undelivered vs load, with Optimal bounds",
        axes: "small loads x {Optimal-LB, Optimal-Feasible, Rapid-Global, Rapid, MaxProp}",
        columns: &["load_per_dest_per_hour", "series", "avg_delay_min"],
        run: experiments::fig13,
    },
    ExperimentPlan {
        id: "fig14",
        title: "Fig. 14 (Trace): component decomposition",
        axes: "load x {Random, Random+acks, Rapid-Local, Rapid}",
        columns: TRACE_SWEEP_COLUMNS,
        run: experiments::fig14,
    },
    ExperimentPlan {
        id: "fig15",
        title: "Fig. 15 (Trace): CDF of Jain's fairness index over parallel-packet groups",
        axes: "burst group size x burst groups",
        columns: &["parallel_packets", "fairness_index", "cdf"],
        run: experiments::fig15,
    },
    ExperimentPlan {
        id: "fig16_18",
        title: "Figs. 16-18 (Powerlaw): avg delay / max delay / within-deadline vs load",
        axes: "load x {Rapid variants, MaxProp, SprayAndWait, Random}",
        columns: SYNTH_SWEEP_COLUMNS,
        run: experiments::fig16_18,
    },
    ExperimentPlan {
        id: "fig19_21",
        title: "Figs. 19-21 (Powerlaw): metrics vs buffer size",
        axes: "buffer KB x {Rapid variants, MaxProp, SprayAndWait, Random}",
        columns: &[
            "buffer_kb",
            "series",
            "avg_delay_s",
            "max_delay_s",
            "delivery_rate",
            "within_deadline",
        ],
        run: experiments::fig19_21,
    },
    ExperimentPlan {
        id: "fig22_24",
        title: "Figs. 22-24 (Exponential): avg delay / max delay / within-deadline vs load",
        axes: "load x {Rapid variants, MaxProp, SprayAndWait, Random}",
        columns: SYNTH_SWEEP_COLUMNS,
        run: experiments::fig22_24,
    },
    ExperimentPlan {
        id: "fig_churn",
        title: "Churn family: avg delay / delivery vs window duration and node downtime",
        axes: "window duration x down fraction x {Rapid, Epidemic, Random}",
        columns: &[
            "window_s",
            "down_fraction",
            "series",
            "avg_delay_s",
            "delivery_rate",
            "within_deadline",
            "expired_rate",
            "suppressed_contacts",
        ],
        run: experiments::fig_churn,
    },
    ExperimentPlan {
        id: "scale",
        title: "Scale family: 100k-node streamed fleet, bounded-memory proof",
        axes: "one streamed run",
        columns: &[
            "mode",
            "run",
            "nodes",
            "contacts_driven",
            "packets_created",
            "delivery_rate",
            "expired",
            "wall_s",
            "peak_rss_mb",
        ],
        run: scale::run_scale,
    },
    ExperimentPlan {
        id: "scale_compressed",
        title: "Compressed scale family: periodic-atom plan, lazy expansion, flat memory",
        axes: "one lazily expanded run",
        columns: &[
            "mode",
            "run",
            "nodes",
            "contacts_driven",
            "packets_created",
            "delivery_rate",
            "expired",
            "wall_s",
            "peak_rss_mb",
            "plan_atoms",
            "plan_windows",
            "plan_kb",
            "expanded_kb",
            "compression_ratio",
        ],
        run: scale::run_scale_compressed,
    },
    ExperimentPlan {
        id: "scale_sharded",
        title:
            "Sharded scale family: regional fleet, per-shard event loops, conservative sync horizon",
        axes: "one run x RAPID_SHARDS partitioned event loops x RAPID_SCALE_PROTO {random, rapid}",
        columns: &[
            "run",
            "nodes",
            "windows_planned",
            "contacts_driven",
            "packets_created",
            "delivery_rate",
            "expired",
            "shards",
            "free_run_horizon_s",
            "wall_s",
            "peak_rss_mb",
        ],
        run: scale::run_scale_sharded,
    },
    ExperimentPlan {
        id: "ttest",
        title: "Paired t-test on per-(src,dst) mean delays: RAPID vs MaxProp",
        axes: "load x {Rapid, MaxProp}",
        columns: &[
            "load_per_dest_per_hour",
            "pairs",
            "t",
            "p_two_sided",
            "mean_diff_min",
        ],
        run: experiments::ttest,
    },
];

/// Schema of `results/scale_sharded_shards.tsv`, the per-shard timing file
/// `scale_sharded` writes next to its own (a second file, not a plan).
pub const SCALE_SHARDED_SHARDS_COLUMNS: &[&str] = &[
    "run",
    "shard",
    "nodes",
    "drives",
    "creations",
    "busy_s",
    "concurrency",
];

/// Long-format trace sweep schema (Figs. 4–7, 10–12, 14).
const TRACE_SWEEP_COLUMNS: &[&str] = &[
    "load_per_dest_per_hour",
    "series",
    "avg_delay_min",
    "delivery_rate",
    "max_delay_min",
    "within_deadline",
    "metadata_over_bw",
    "utilization",
];

/// Long-format synthetic sweep schema (Figs. 16–18, 22–24).
const SYNTH_SWEEP_COLUMNS: &[&str] = &[
    "load_per_dest_per_50s",
    "series",
    "avg_delay_s",
    "max_delay_s",
    "delivery_rate",
    "within_deadline",
];

/// Looks up a plan by id.
pub fn find(id: &str) -> Option<&'static ExperimentPlan> {
    PLANS.iter().find(|p| p.id == id)
}

/// All registered ids, in canonical order.
pub fn ids() -> Vec<&'static str> {
    PLANS.iter().map(|p| p.id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_nonempty() {
        let mut ids = ids();
        assert!(!ids.is_empty());
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate experiment id");
    }

    #[test]
    fn every_plan_documents_its_schema() {
        for p in PLANS {
            assert!(!p.title.is_empty(), "{} has no title", p.id);
            assert!(!p.axes.is_empty(), "{} has no axes", p.id);
            assert!(!p.columns.is_empty(), "{} has no columns", p.id);
        }
    }

    #[test]
    fn find_resolves_known_and_rejects_unknown() {
        assert!(find("fig03").is_some());
        assert!(find("scale").is_some());
        assert!(find("fig99").is_none());
    }
}
