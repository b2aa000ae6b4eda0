//! The experiment implementations behind the registry.
//!
//! Each function reproduces one figure/table family and writes its TSV to
//! stdout and `results/<id>.tsv`; `fig_all` dispatches to them through
//! [`crate::registry`]. Output is deterministic for a fixed seed.

use crate::families::{
    synth_buffer_sweep, synth_load_sweep, synth_loads, trace_loads, trace_sweep,
};
use crate::proto::Proto;
use crate::runner::run_spec;
use crate::trace_exp::{TraceLab, WARMUP_DAYS};
use crate::tsv::{f, Tsv};
use crate::{days_per_point, fig3_days, parallel_map, root_seed, runs_per_point, Mobility};
use dtn_sim::workload::{merge, parallel_burst};
use dtn_sim::{NoiseModel, TimeDelta};
use std::collections::BTreeMap;

/// Days of the paper's deployment (§5.2, Table 3).
const DEPLOY_DAYS: u32 = 58;

/// Table 3: daily statistics of the deployed system (§5.2) — the
/// deployment-emulation run: default load (4 packets/hour from each bus to
/// each on-road bus), deployment noise, RAPID avg-delay, 58 days.
pub fn table3() {
    let mut tsv = Tsv::new("table3");
    tsv.comment("Table 3: deployment daily averages (synthetic DieselNet, noise model on)");
    tsv.comment(&format!("days = {DEPLOY_DAYS}, seed = {}", root_seed()));

    let lab = TraceLab::deployment(root_seed());
    let noise = Some(NoiseModel::deployment_default());
    let rows = parallel_map(DEPLOY_DAYS as usize, |d| {
        let spec = lab.day_spec(WARMUP_DAYS + d as u32, 4.0, 0, noise);
        let buses = lab
            .fleet()
            .generate_day(WARMUP_DAYS + d as u32)
            .on_road
            .len();
        (buses, run_spec(&spec, Proto::RapidAvg))
    });

    let n = rows.len() as f64;
    let avg_buses = rows.iter().map(|(b, _)| *b as f64).sum::<f64>() / n;
    let avg_bytes = rows.iter().map(|(_, r)| r.data_bytes as f64).sum::<f64>() / n;
    let avg_meetings = rows.iter().map(|(_, r)| r.contacts as f64).sum::<f64>() / n;
    let delivery = rows.iter().map(|(_, r)| r.delivery_rate()).sum::<f64>() / n;
    let delay_min = rows
        .iter()
        .map(|(_, r)| r.avg_delay_secs().unwrap_or(0.0) / 60.0)
        .sum::<f64>()
        / n;
    let meta_bw = rows
        .iter()
        .map(|(_, r)| r.metadata_over_bandwidth())
        .sum::<f64>()
        / n;
    let meta_data = rows
        .iter()
        .map(|(_, r)| r.metadata_over_data())
        .sum::<f64>()
        / n;

    tsv.header();
    tsv.row(&["avg_buses_scheduled_per_day", &f(avg_buses), "19"]);
    tsv.row(&[
        "avg_total_MB_transferred_per_day",
        &f(avg_bytes / 1e6),
        "261.4",
    ]);
    tsv.row(&["avg_meetings_per_day", &f(avg_meetings), "147.5"]);
    tsv.row(&["pct_delivered_per_day", &f(delivery * 100.0), "88"]);
    tsv.row(&["avg_packet_delivery_delay_min", &f(delay_min), "91.7"]);
    tsv.row(&["metadata_over_bandwidth", &f(meta_bw), "0.002"]);
    tsv.row(&["metadata_over_data", &f(meta_data), "0.017"]);
}

/// Fig. 3: simulator validation — per-day average delay of the
/// deployment-emulation run ("Real") against clean simulator runs
/// (mean of `RAPID_RUNS` workload draws with a 95% CI).
pub fn fig03() {
    let mut tsv = Tsv::new("fig03");
    let days = fig3_days();
    let runs = runs_per_point();
    tsv.comment("Fig. 3: real (deployment emulation) vs simulation avg delay per day");
    tsv.comment(&format!(
        "days = {days}, sim runs per day = {runs}, seed = {}",
        root_seed()
    ));
    tsv.header();

    let lab = TraceLab::deployment(root_seed());
    // Jobs: per day, one noisy "deployment" run + `runs` clean draws.
    let per_day: Vec<(f64, f64, f64)> = parallel_map(days as usize, |d| {
        let day = WARMUP_DAYS + d as u32;
        let noisy = {
            let spec = lab.day_spec(day, 4.0, 0, Some(NoiseModel::deployment_default()));
            run_spec(&spec, Proto::RapidAvg)
        };
        let real = noisy.avg_delay_secs().unwrap_or(0.0) / 60.0;
        let sims: Vec<f64> = (0..runs)
            .map(|k| {
                let spec = lab.day_spec(day, 4.0, k + 1, None);
                run_spec(&spec, Proto::RapidAvg)
                    .avg_delay_secs()
                    .unwrap_or(0.0)
                    / 60.0
            })
            .collect();
        let (mean, ci) = dtn_stats::mean_ci95(&sims).unwrap_or((sims[0], 0.0));
        (real, mean, ci)
    });
    let mut rel_err_acc = 0.0;
    for (d, (real, sim, ci)) in per_day.iter().enumerate() {
        tsv.row(&[format!("{d}"), f(*real), f(*sim), f(*ci)]);
        if *real > 0.0 {
            rel_err_acc += (real - sim).abs() / real;
        }
    }
    tsv.comment(&format!(
        "mean relative |real - sim| error = {:.3} (paper: within 1% with 95% confidence)",
        rel_err_acc / per_day.len() as f64
    ));
}

/// Figs. 4 & 5 (Trace): average delay and delivery rate vs load, RAPID
/// optimizing average delay (Eq. 1) against MaxProp, Spray and Wait and
/// Random.
pub fn fig04_05() {
    trace_sweep(
        "fig04_05",
        "Figs. 4-5 (Trace): avg delay / delivery rate vs load; RAPID metric = avg delay",
        &trace_loads(),
        &Proto::comparison_set(),
    );
}

/// Fig. 6 (Trace): maximum delay vs load, RAPID optimizing max delay.
pub fn fig06() {
    trace_sweep(
        "fig06",
        "Fig. 6 (Trace): max delay vs load; RAPID metric = max delay",
        &trace_loads(),
        &[
            Proto::RapidMax,
            Proto::MaxProp,
            Proto::SprayWait,
            Proto::Random,
        ],
    );
}

/// Fig. 7 (Trace): fraction delivered within the 2.7 h deadline vs load,
/// RAPID optimizing missed deadlines (Eq. 2).
pub fn fig07() {
    trace_sweep(
        "fig07",
        "Fig. 7 (Trace): delivery within 2.7h deadline vs load; RAPID metric = deadline",
        &trace_loads(),
        &[
            Proto::RapidDeadline,
            Proto::MaxProp,
            Proto::SprayWait,
            Proto::Random,
        ],
    );
}

/// Fig. 8 (Trace): average delay as the in-band metadata channel is capped
/// to a fraction of each opportunity, for three loads.
pub fn fig08() {
    let mut tsv = Tsv::new("fig08");
    tsv.comment("Fig. 8 (Trace): avg delay vs metadata cap (fraction of bandwidth)");
    tsv.comment(&format!(
        "days per point = {}, seed = {}",
        days_per_point(),
        root_seed()
    ));
    tsv.header();
    let lab = TraceLab::load_sweep(root_seed());
    for cap in [0.0, 0.01, 0.02, 0.05, 0.10, 0.20, 0.35] {
        for load in [6.0, 12.0, 20.0] {
            let a = lab.run_days_agg(days_per_point(), load, Proto::RapidAvgCapped(cap), None);
            tsv.row(&[
                f(cap),
                f(load),
                f(a.avg_delay_min),
                f(a.delivery_rate),
                f(a.metadata_over_bandwidth),
            ]);
        }
    }
}

/// Fig. 9 (Trace): channel utilization, delivery rate and metadata/data as
/// load grows — the bottleneck-links story.
pub fn fig09() {
    let mut tsv = Tsv::new("fig09");
    tsv.comment("Fig. 9 (Trace): utilization / delivery / metadata-over-data vs load (RAPID)");
    tsv.comment(&format!(
        "days per point = {}, seed = {}",
        days_per_point(),
        root_seed()
    ));
    tsv.header();
    let lab = TraceLab::load_sweep(root_seed());
    for load in [5.0, 10.0, 20.0, 40.0, 60.0, 75.0] {
        let a = lab.run_days_agg(days_per_point(), load, Proto::RapidAvg, None);
        tsv.row(&[
            f(load),
            f(a.utilization),
            f(a.delivery_rate),
            f(a.metadata_over_data),
            f(a.metadata_over_bandwidth),
        ]);
    }
}

/// Figs. 10–12 (Trace): the in-band control channel versus an instant
/// global control channel (hybrid DTN, §6.2.3).
pub fn fig10_12() {
    trace_sweep(
        "fig10_12",
        "Figs. 10-12 (Trace): in-band vs instant global control channel",
        &trace_loads(),
        &[
            Proto::RapidAvg,
            Proto::RapidAvgGlobal,
            Proto::RapidDeadline,
            Proto::RapidDeadlineGlobal,
        ],
    );
}

/// Fig. 13 (Trace): comparison with Optimal at small loads. Average delay
/// *including undelivered packets* (charged their time in the system — the
/// ILP objective of Appendix D).
pub fn fig13() {
    let mut tsv = Tsv::new("fig13");
    tsv.comment(
        "Fig. 13 (Trace): avg delay incl. undelivered vs load — Optimal bounds, RAPID, MaxProp",
    );
    tsv.comment(&format!(
        "days per point = {}, seed = {}",
        days_per_point(),
        root_seed()
    ));
    tsv.header();
    let lab = TraceLab::load_sweep(root_seed());
    let days = days_per_point();
    for load in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0] {
        // Optimal bounds per day (on the measured window only).
        let bounds = parallel_map(days as usize, |d| {
            let spec = lab.day_spec(WARMUP_DAYS + d as u32, load, 0, None);
            // Strip the warm-up for the solver: it sees only the measured
            // window, which is exactly the instance the protocols face.
            let contacts: Vec<dtn_sim::ContactWindow> = spec
                .contacts
                .materialize()
                .windows()
                .iter()
                .filter(|c| c.start >= spec.measure_from)
                .copied()
                .collect();
            let schedule = dtn_sim::Schedule::new(contacts);
            dtn_optimal::solve_bounded(&schedule, &spec.packets.materialize(), spec.horizon)
        });
        let n = bounds.len() as f64;
        let lb: f64 = bounds
            .iter()
            .map(|b| b.lower_bound_avg_delay_secs)
            .sum::<f64>()
            / n
            / 60.0;
        let fs: f64 = bounds
            .iter()
            .map(|b| b.feasible_avg_delay_secs)
            .sum::<f64>()
            / n
            / 60.0;
        tsv.blank();
        tsv.row(&[f(load), "Optimal-LB".into(), f(lb)]);
        tsv.row(&[f(load), "Optimal-Feasible".into(), f(fs)]);

        for proto in [Proto::RapidAvgGlobal, Proto::RapidAvg, Proto::MaxProp] {
            let reports = parallel_map(days as usize, |d| {
                let spec = lab.day_spec(WARMUP_DAYS + d as u32, load, 0, None);
                run_spec(&spec, proto)
            });
            let avg: f64 = reports
                .iter()
                .map(|r| r.avg_delay_with_undelivered_secs().unwrap_or(0.0))
                .sum::<f64>()
                / reports.len() as f64
                / 60.0;
            tsv.row(&[f(load), proto.label(), f(avg)]);
        }
    }
}

/// Fig. 14 (Trace): RAPID component decomposition — Random, Random with
/// flooded acks, rapid-local, full RAPID.
pub fn fig14() {
    trace_sweep(
        "fig14",
        "Fig. 14 (Trace): components — Random, Random+acks, Rapid-Local, Rapid",
        &trace_loads(),
        &[
            Proto::Random,
            Proto::RandomAcks,
            Proto::RapidAvgLocal,
            Proto::RapidAvg,
        ],
    );
}

/// Fig. 15 (Trace): fairness of RAPID's allocation to packets created in
/// parallel — the CDF of Jain's index over burst groups of 20 and 30
/// parallel packets, under contention.
pub fn fig15() {
    let mut tsv = Tsv::new("fig15");
    tsv.comment("Fig. 15 (Trace): CDF of Jain's fairness index over parallel-packet groups");
    tsv.comment(&format!(
        "days = {}, seed = {}",
        days_per_point(),
        root_seed()
    ));
    tsv.header();

    let lab = TraceLab::load_sweep(root_seed());
    let seeds = dtn_stats::SeedStream::new(root_seed()).derive("fig15");
    for group_size in [20usize, 30] {
        let indices: Vec<Vec<f64>> = parallel_map(days_per_point() as usize, |d| {
            let day = WARMUP_DAYS + d as u32;
            // Background load ≈ 60 pkt/hour/node plus periodic bursts of
            // `group_size` parallel packets.
            let mut spec = lab.day_spec(day, 60.0 / 18.0, 0, None);
            let mut rng = seeds.rng_indexed("bursts", u64::from(day));
            let on_road: Vec<dtn_sim::NodeId> = {
                // Reconstruct the day's on-road set from the fleet.
                lab.fleet().generate_day(day).on_road
            };
            let mut bursts = Vec::new();
            for k in 0..40u64 {
                let t = spec.measure_from + TimeDelta::from_secs(600 + k * 1500); // every 25 min
                bursts.push(parallel_burst(&on_road, group_size, t, 1024, &mut rng));
            }
            bursts.push(spec.packets.materialize());
            spec.packets = crate::runner::PacketsSpec::shared(merge(&bursts));
            let report = run_spec(&spec, Proto::RapidAvg);
            report
                .delays_by_creation_group()
                .into_iter()
                .filter(|(_, delays)| delays.len() == group_size)
                .map(|(_, delays)| dtn_stats::jain_index(&delays))
                .collect()
        });
        let mut all: Vec<f64> = indices.into_iter().flatten().collect();
        all.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let n = all.len().max(1) as f64;
        for (i, idx) in all.iter().enumerate() {
            tsv.row(&[format!("{group_size}"), f(*idx), f((i + 1) as f64 / n)]);
        }
    }
}

/// Figs. 16–18 (Powerlaw): average delay, max delay and within-deadline
/// fraction vs load under popularity-skewed mobility.
pub fn fig16_18() {
    synth_load_sweep(
        "fig16_18",
        "Figs. 16-18 (Powerlaw): avg delay / max delay / within-deadline vs load",
        Mobility::PowerLaw,
        &synth_loads(),
    );
}

/// Figs. 19–21 (Powerlaw): the three metrics vs available buffer space at
/// a fixed load of 20 packets per destination per 50 s.
pub fn fig19_21() {
    synth_buffer_sweep(
        "fig19_21",
        "Figs. 19-21 (Powerlaw): metrics vs buffer size (load 20 per dest per 50s)",
        Mobility::PowerLaw,
        20.0,
        &[10, 20, 40, 80, 140, 200, 280],
    );
}

/// Figs. 22–24 (Exponential): the three metrics vs load under uniform
/// exponential mobility.
pub fn fig22_24() {
    synth_load_sweep(
        "fig22_24",
        "Figs. 22-24 (Exponential): avg delay / max delay / within-deadline vs load",
        Mobility::Exponential,
        &synth_loads(),
    );
}

/// Windowed-contact × node-churn sweep (beyond the paper; see
/// EXPERIMENTS.md §"Churn family").
pub fn fig_churn() {
    let mut tsv = Tsv::new("fig_churn");
    tsv.comment("Churn family: avg delay / delivery vs window duration and node downtime");
    tsv.comment(&format!(
        "runs per point = {}, seed = {}; load = 20 per dest per 50 s; TTL = 60 s",
        runs_per_point(),
        root_seed()
    ));
    tsv.header();
    let lab = crate::churn::ChurnLab::new(root_seed());
    let load = 20.0;
    for window_s in [0u64, 30, 120, 300] {
        for down_fraction in [0.0, 0.15, 0.35] {
            for proto in [Proto::RapidAvg, Proto::Epidemic, Proto::Random] {
                let a = lab.run_many_agg(
                    runs_per_point(),
                    load,
                    TimeDelta::from_secs(window_s),
                    down_fraction,
                    proto,
                );
                tsv.row(&[
                    format!("{window_s}"),
                    f(down_fraction),
                    proto.label(),
                    f(a.avg_delay_s),
                    f(a.delivery_rate),
                    f(a.within_deadline),
                    f(a.expired_rate),
                    f(a.suppressed_contacts),
                ]);
            }
        }
    }
}

/// §6.2.1's statistical check: a paired t-test comparing the average delay
/// of every source–destination pair under RAPID against MaxProp.
pub fn ttest() {
    let mut tsv = Tsv::new("ttest");
    tsv.comment("Paired t-test on per-(src,dst) mean delays: RAPID vs MaxProp (§6.2.1)");
    tsv.comment(&format!(
        "days = {}, seed = {}",
        days_per_point(),
        root_seed()
    ));
    tsv.header();

    let lab = TraceLab::load_sweep(root_seed());
    for load in [5.0, 20.0] {
        // Per-pair mean delays pooled across days, one map per protocol.
        let pooled: Vec<BTreeMap<(u32, u32), Vec<f64>>> = parallel_map(2usize, |which| {
            let proto = if which == 0 {
                Proto::RapidAvg
            } else {
                Proto::MaxProp
            };
            let mut by_pair: BTreeMap<(u32, u32), Vec<f64>> = BTreeMap::new();
            for d in 0..days_per_point() {
                let spec = lab.day_spec(WARMUP_DAYS + d, load, 0, None);
                let report = run_spec(&spec, proto);
                for o in &report.outcomes {
                    if let Some(at) = o.delivered_at {
                        by_pair
                            .entry((o.src.0, o.dst.0))
                            .or_default()
                            .push(at.since(o.created_at).as_secs_f64());
                    }
                }
            }
            by_pair
        });
        let (rapid, maxprop) = (&pooled[0], &pooled[1]);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for (pair, rd) in rapid {
            if let Some(md) = maxprop.get(pair) {
                a.push(rd.iter().sum::<f64>() / rd.len() as f64);
                b.push(md.iter().sum::<f64>() / md.len() as f64);
            }
        }
        match dtn_stats::paired_t_test(&a, &b) {
            Some(r) => tsv.row(&[
                f(load),
                format!("{}", a.len()),
                f(r.t),
                format!("{:.2e}", r.p_two_sided),
                f(r.mean_diff / 60.0),
            ]),
            None => tsv.comment("insufficient pairs for a t-test"),
        }
    }
    tsv.comment("negative mean_diff = RAPID's per-pair delays are lower");
}
