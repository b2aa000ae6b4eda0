//! Shared drivers for the figure families.

use crate::proto::Proto;
use crate::synth::{Mobility, SynthLab};
use crate::trace_exp::TraceLab;
use crate::tsv::{f, Tsv};
use crate::{days_per_point, root_seed, runs_per_point};

/// Long-format trace sweep: one row per (load, series) with the four
/// headline metrics. Used by Figs. 4–7, 10–12 and 14.
pub fn trace_sweep(id: &str, title: &str, loads: &[f64], protos: &[Proto]) {
    let mut tsv = Tsv::new(id);
    tsv.comment(title);
    tsv.comment(&format!(
        "days per point = {}, seed = {} (override via RAPID_DAYS / RAPID_SEED)",
        days_per_point(),
        root_seed()
    ));
    tsv.header();
    let lab = TraceLab::load_sweep(root_seed());
    for &load in loads {
        for &proto in protos {
            let a = lab.run_days_agg(days_per_point(), load, proto, None);
            tsv.row(&[
                f(load),
                proto.label(),
                f(a.avg_delay_min),
                f(a.delivery_rate),
                f(a.max_delay_min),
                f(a.within_deadline),
                f(a.metadata_over_bandwidth),
                f(a.utilization),
            ]);
        }
    }
}

/// Long-format synthetic sweep over loads. Used by Figs. 16–18 and 22–24.
pub fn synth_load_sweep(id: &str, title: &str, mobility: Mobility, loads: &[f64]) {
    let mut tsv = Tsv::new(id);
    tsv.comment(title);
    tsv.comment(&format!(
        "runs per point = {}, seed = {}",
        runs_per_point(),
        root_seed()
    ));
    tsv.header();
    let lab = SynthLab::new(root_seed());
    let protos = [
        Proto::RapidAvg,
        Proto::RapidMax,
        Proto::RapidDeadline,
        Proto::MaxProp,
        Proto::SprayWait,
        Proto::Random,
    ];
    for &load in loads {
        for proto in protos {
            let a = lab.run_many_agg(mobility, runs_per_point(), load, None, proto);
            tsv.row(&[
                f(load),
                series_label(proto),
                f(a.avg_delay_s),
                f(a.max_delay_s),
                f(a.delivery_rate),
                f(a.within_deadline),
            ]);
        }
    }
}

/// Long-format synthetic sweep over buffer sizes at a fixed load.
/// Used by Figs. 19–21.
pub fn synth_buffer_sweep(
    id: &str,
    title: &str,
    mobility: Mobility,
    load: f64,
    buffers_kb: &[u64],
) {
    let mut tsv = Tsv::new(id);
    tsv.comment(title);
    tsv.comment(&format!(
        "load = {load} per destination per 50 s; runs per point = {}, seed = {}",
        runs_per_point(),
        root_seed()
    ));
    tsv.header();
    let lab = SynthLab::new(root_seed());
    let protos = [
        Proto::RapidAvg,
        Proto::RapidMax,
        Proto::RapidDeadline,
        Proto::MaxProp,
        Proto::SprayWait,
        Proto::Random,
    ];
    for &kb in buffers_kb {
        for proto in protos {
            let a = lab.run_many_agg(mobility, runs_per_point(), load, Some(kb * 1024), proto);
            tsv.row(&[
                format!("{kb}"),
                series_label(proto),
                f(a.avg_delay_s),
                f(a.max_delay_s),
                f(a.delivery_rate),
                f(a.within_deadline),
            ]);
        }
    }
}

/// RAPID metric variants get distinct series labels in synthetic sweeps
/// (each figure reads the variant optimizing its own metric).
fn series_label(proto: Proto) -> String {
    match proto {
        Proto::RapidAvg => "Rapid(avg)".into(),
        Proto::RapidMax => "Rapid(max)".into(),
        Proto::RapidDeadline => "Rapid(deadline)".into(),
        other => other.label(),
    }
}

/// The standard trace load axis (packets/hour per destination per source).
pub fn trace_loads() -> Vec<f64> {
    vec![2.0, 5.0, 10.0, 20.0, 30.0, 40.0]
}

/// The standard synthetic load axis (packets per destination per 50 s).
pub fn synth_loads() -> Vec<f64> {
    let mut loads = vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0];
    // `RAPID_SYNTH_LOADS` truncates the axis to its first N points — the
    // smoke/equivalence knob (the sharded-RAPID TSV test runs one point
    // instead of eight).
    let cap = crate::env_u64("RAPID_SYNTH_LOADS", loads.len() as u64) as usize;
    loads.truncate(cap.max(1));
    loads
}
