//! The bench runner's crash-retry loop: with `RAPID_CKPT_EVERY_S` set and
//! a scheduled crash fault injected, `run_spec` must recover by resuming
//! from the last good checkpoint and finish with a report byte-identical
//! to an undisturbed run; with the retry budget exhausted it must re-raise
//! instead of quietly returning garbage.
//!
//! One test function on purpose: the knobs live in the process
//! environment, and parallel mutation would race.

use dtn_sim::workload::{PacketSpec, Workload};
use dtn_sim::{NodeId, Schedule, Time, TimeDelta};
use rapid_bench::{run_spec, ContactsSpec, PacketsSpec, Proto, RunSpec};
use std::sync::atomic::{AtomicU64, Ordering};

fn spec() -> RunSpec {
    let windows = (1..40)
        .map(|i| {
            dtn_sim::ContactWindow::instant(
                Time::from_secs(i * 5),
                NodeId((i % 4) as u32),
                NodeId(((i + 1) % 4) as u32),
                4096,
            )
        })
        .collect();
    let specs = (0..10)
        .map(|i| PacketSpec {
            time: Time::from_secs(i * 13),
            src: NodeId((i % 4) as u32),
            dst: NodeId(((i + 2) % 4) as u32),
            size_bytes: 512,
        })
        .collect();
    RunSpec {
        contacts: ContactsSpec::shared(Schedule::new(windows)),
        packets: PacketsSpec::shared(Workload::new(specs)),
        nodes: 4,
        buffer: 64 << 10,
        deadline: TimeDelta::from_secs(120),
        horizon: Time::from_secs(250),
        seed: 5,
        noise: None,
        measure_from: Time::ZERO,
        churn: Vec::new(),
        ttl: None,
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "rapid-bench-resilience-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

#[test]
fn injected_crash_recovers_via_checkpoint_resume() {
    let spec = spec();
    // Reference: knobs unset, plain run.
    let reference = run_spec(&spec, Proto::RapidAvg);
    assert!(reference.delivered() >= 1, "scenario must be non-trivial");

    // A crash at sim time 100 s with a 30 s checkpoint cadence: the run
    // dies once, the retry resumes from the last snapshot and finishes.
    let dir = temp_dir("recover");
    std::env::set_var("RAPID_CKPT_EVERY_S", "30");
    std::env::set_var("RAPID_CKPT_DIR", &dir);
    std::env::set_var("RAPID_FAULT_CRASH_S", "100");
    let recovered = run_spec(&spec, Proto::RapidAvg);
    assert_eq!(recovered, reference, "recovered run diverged");
    // Success cleans up the run's checkpoint directory.
    let leftovers = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
    assert_eq!(leftovers, 0, "checkpoints must be pruned after success");

    // Epidemic (stateless) takes the same path.
    std::env::set_var("RAPID_FAULT_CRASH_S", "60");
    let epidemic_ref = {
        std::env::remove_var("RAPID_CKPT_EVERY_S");
        let r = run_spec(&spec, Proto::Epidemic);
        std::env::set_var("RAPID_CKPT_EVERY_S", "30");
        r
    };
    assert_eq!(run_spec(&spec, Proto::Epidemic), epidemic_ref);

    // Three scheduled crashes exhaust the three-attempt budget: the last
    // one must surface, not be swallowed.
    std::env::set_var("RAPID_FAULT_CRASH_S", "100,101,102");
    let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_spec(&spec, Proto::RapidAvg)
    }));
    assert!(died.is_err(), "an exhausted retry budget must propagate");

    for knob in [
        "RAPID_CKPT_EVERY_S",
        "RAPID_CKPT_DIR",
        "RAPID_FAULT_CRASH_S",
    ] {
        std::env::remove_var(knob);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
