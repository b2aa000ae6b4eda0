//! `rapid-benchmark compare <a.jsonl> <b.jsonl>`: judges result set `b`
//! (the change) against result set `a` (the parent) by the benchmark's
//! own bounds — the tool behind the repeatability criterion and every
//! later parent-vs-change table.
//!
//! A result set is the file `run --out` appends to: one JSON object per
//! run. Runs are grouped by workload; each end-to-end metric is reduced
//! to the median and quartiles of its per-run values.

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::Quartiles;
use std::collections::BTreeMap;

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// Run-to-run spread exceeds the bound: the runs cannot resolve a
    /// difference of the size the bound forbids.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Per workload: per-metric values across runs, and operation counts.
#[derive(Debug, Default)]
struct WorkloadRuns {
    values: BTreeMap<String, Vec<f64>>,
    attempted: f64,
    failed: f64,
}

fn load(path: &str) -> Result<BTreeMap<String, WorkloadRuns>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut sets: BTreeMap<String, WorkloadRuns> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = || format!("{path}:{}", n + 1);
        let run = Json::parse(line).map_err(|e| format!("{}: {e}", at()))?;
        let header = run.get("header");
        if header.and_then(|h| h.get("mode")).and_then(Json::as_str) != Some("end_to_end") {
            continue;
        }
        let workload = header
            .and_then(|h| h.get("workload"))
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no header.workload", at()))?;
        let set = sets.entry(workload.to_string()).or_default();
        set.attempted += run.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        set.failed += run.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let metrics = run
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{}: no metrics object", at()))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{}: metric {name} has no numeric value", at()))?;
            set.values.entry(name.clone()).or_default().push(value);
        }
    }
    if sets.is_empty() {
        return Err(format!("{path}: no end-to-end result lines"));
    }
    Ok(sets)
}

/// Judges `b` against `a` for one metric.
///
/// * Spread wider than the bound on either side: `Unresolved` — unless
///   every run of `b` reads better than every run of `a`.
/// * Otherwise the medians decide: worse or better by more than the bound,
///   else `Same`.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> (Quartiles, Quartiles, f64, Verdict) {
    let (qa, qb) = (Quartiles::of(a), Quartiles::of(b));
    // Signed so that positive is worse, as a share of the parent's median.
    let worse_by = match metric.better {
        Better::Lower => (qb.median - qa.median) / qa.median.abs(),
        Better::Higher => (qa.median - qb.median) / qa.median.abs(),
    };
    let worse_by = if worse_by.is_finite() { worse_by } else { 0.0 };
    let separated = match metric.better {
        Better::Lower => {
            b.iter().copied().fold(f64::MIN, f64::max) < a.iter().copied().fold(f64::MAX, f64::min)
        }
        Better::Higher => {
            b.iter().copied().fold(f64::MAX, f64::min) > a.iter().copied().fold(f64::MIN, f64::max)
        }
    };
    let verdict = if qa.spread().max(qb.spread()) > metric.bound {
        if separated {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > metric.bound {
        Verdict::Worse
    } else if -worse_by > metric.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (qa, qb, worse_by, verdict)
}

/// Prints one row per workload × end-to-end metric; `Ok(true)` when no
/// row is `worse` and no workload fails a larger share of its operations.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut ok = true;
    println!(
        "{:<24} {:<18} {:>12} {:>12} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "a.median", "b.median", "worse_by", "bound", "a.iqr", "b.iqr"
    );
    for (workload, runs_a) in &a {
        let Some(runs_b) = b.get(workload) else {
            println!("{workload:<24} missing from {path_b}");
            ok = false;
            continue;
        };
        for metric in END_TO_END {
            let (Some(va), Some(vb)) = (
                runs_a.values.get(metric.name),
                runs_b.values.get(metric.name),
            ) else {
                println!("{workload:<24} {:<18} missing from one side", metric.name);
                ok = false;
                continue;
            };
            let (qa, qb, worse_by, verdict) = judge(metric, va, vb);
            ok &= verdict != Verdict::Worse;
            println!(
                "{workload:<24} {:<18} {:>12.5} {:>12.5} {:>8.2}% {:>6.0}% {:>7.2}% {:>7.2}%  {} (n={}/{})",
                metric.name,
                qa.median,
                qb.median,
                100.0 * worse_by,
                100.0 * metric.bound,
                100.0 * qa.spread(),
                100.0 * qb.spread(),
                verdict.label(),
                qa.n,
                qb.n,
            );
        }
        let frac = |r: &WorkloadRuns| {
            if r.attempted > 0.0 {
                r.failed / r.attempted
            } else {
                1.0
            }
        };
        let (fa, fb) = (frac(runs_a), frac(runs_b));
        let verdict = if fb > fa { "worse" } else { "same" };
        ok &= fb <= fa;
        println!(
            "{workload:<24} {:<18} {fa:>12.5} {fb:>12.5} {:>9} {:>7} {:>8} {:>8}  {verdict} ({}/{} vs {}/{})",
            "failed_frac", "-", "0%", "-", "-", runs_a.failed, runs_a.attempted, runs_b.failed, runs_b.attempted,
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
        END_TO_END.iter().find(|m| m.name == name)
    }

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        let wall = end_to_end("wall_s").unwrap(); // lower is better, 25%
        let steady = [1.00, 1.01, 0.99, 1.00, 1.02];
        let verdict = |b: &[f64]| judge(wall, &steady, b).3;
        assert_eq!(verdict(&[1.03, 1.04, 1.02, 1.03, 1.05]), Verdict::Same);
        assert_eq!(verdict(&[1.40, 1.41, 1.39, 1.40, 1.42]), Verdict::Worse);
        assert_eq!(verdict(&[0.60, 0.61, 0.59, 0.60, 0.62]), Verdict::Better);
        // Spread beyond the bound hides a shift...
        assert_eq!(verdict(&[0.9, 1.5, 1.15, 0.95, 1.4]), Verdict::Unresolved);
        // ...unless every run of the change beats every run of the parent.
        assert_eq!(verdict(&[0.5, 0.9, 0.6, 0.8, 0.7]), Verdict::Better);

        let rate = end_to_end("sim_delivery_rate").unwrap(); // higher is better
        let (_, _, worse_by, v) = judge(rate, &[0.50, 0.50], &[0.30, 0.30]);
        assert_eq!(v, Verdict::Worse);
        assert!((worse_by - 0.4).abs() < 1e-12, "a drop reads as positive");
        assert_eq!(judge(rate, &[0.5], &[0.5]).3, Verdict::Same);
    }
}
