//! Runs registered experiments in sequence (the full reproduction).
//! Results land in `results/*.tsv`. Budget-minded defaults; see the
//! environment knobs in the crate docs to go bigger.
//!
//! Usage:
//!
//! ```text
//! fig_all                     # run everything
//! fig_all fig08 table3        # run only the named experiments
//! fig_all --list              # print the registry (id, axes, columns)
//! fig_all --jobs 8 fig16_18   # pin the worker pool (default: available
//!                             # parallelism; RAPID_JOBS is the env
//!                             # equivalent, and --jobs wins over it)
//! ```
//!
//! A `RAPID_*` environment variable no crate reads (a retired knob, a
//! typo) exits 2 before anything runs. The first stderr line of a run
//! names the kernel RAPID executes (`kernel=avx2`, or
//! `kernel=scalar (RAPID_KERNEL)` when the knob pinned it). Experiments
//! resolve through `rapid_bench::registry` and run in-process; every
//! requested one runs even if an earlier one fails (panics are caught),
//! and the exit status reflects the pass/fail summary printed at the end.

#![forbid(unsafe_code)]

use rapid_bench::knobs;
use rapid_bench::registry::{self, ExperimentPlan};

fn usage_exit(code: i32) -> ! {
    eprintln!("usage: fig_all [--list] [--jobs N] [experiment ids...]");
    eprintln!("known experiments: {}", registry::ids().join(" "));
    std::process::exit(code);
}

fn main() {
    let strangers =
        knobs::unknown(std::env::vars_os().map(|(k, _)| k.to_string_lossy().into_owned()));
    if !strangers.is_empty() {
        eprintln!(
            "error: unknown RAPID_* variable(s) {}: no code reads them, so the run would \
             silently use defaults; known knobs: {} [diag=unknown-knob]",
            strangers.join(" "),
            knobs::KNOBS.join(" ")
        );
        std::process::exit(2);
    }

    let mut filters: Vec<String> = Vec::new();
    let mut list = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--jobs" => {
                let n: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("error: --jobs needs a positive integer");
                        usage_exit(2)
                    });
                // The worker pool reads RAPID_JOBS; the flag is its CLI face.
                std::env::set_var("RAPID_JOBS", n.to_string());
            }
            "--help" | "-h" => usage_exit(0),
            other if other.starts_with('-') => {
                eprintln!("error: unknown flag `{other}`");
                usage_exit(2)
            }
            other => filters.push(other.to_string()),
        }
    }

    if list {
        for p in registry::PLANS {
            println!("{:<10} {}", p.id, p.title);
            println!("{:<10}   axes: {}", "", p.axes);
            println!("{:<10}   columns: {}", "", p.columns.join("\t"));
        }
        return;
    }

    if let Some(unknown) = filters.iter().find(|f| registry::find(f).is_none()) {
        eprintln!(
            "error: unknown experiment `{unknown}`; known: {}",
            registry::ids().join(" ")
        );
        std::process::exit(2);
    }
    // Keep canonical order regardless of argument order.
    let selected: Vec<&ExperimentPlan> = registry::PLANS
        .iter()
        .filter(|p| filters.is_empty() || filters.iter().any(|f| f == p.id))
        .collect();

    // Which kernel every RAPID run below executes: detected, or pinned.
    let pinned = std::env::var_os("RAPID_KERNEL").map_or("", |_| " (RAPID_KERNEL)");
    let kernel = format!("{:?}", rapid_core::Kernel::from_env()).to_lowercase();
    eprintln!("kernel={kernel}{pinned}");

    let mut results: Vec<(&str, bool)> = Vec::new();
    for plan in &selected {
        eprintln!("=== {} ===", plan.id);
        let ok = std::panic::catch_unwind(plan.run).is_ok();
        results.push((plan.id, ok));
    }

    let failed = results.iter().filter(|(_, ok)| !ok).count();
    eprintln!("=== summary ===");
    for (id, ok) in &results {
        eprintln!("{} {id}", if *ok { "PASS" } else { "FAIL" });
    }
    eprintln!(
        "{}/{} experiments passed; see results/*.tsv",
        results.len() - failed,
        results.len()
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
