//! CI bench smoke: two cheap wall-clock gates against committed baselines,
//! each failing (exit 1) only on a regression beyond a generous factor —
//! the checks catch order-of-magnitude regressions, not small drifts.
//!
//! * **Selection gate** — the RAPID selection scenario at the 1k point
//!   (the PR3 hot path), vs `selection/contact_with_1000_buffered` in the
//!   selection baseline JSON.
//! * **Contact-throughput gate** — a truncated windows-heavy scale shape
//!   (300k sparse-fleet windows, near-empty buffers, Random replication)
//!   driven through the streaming engine, vs
//!   `scale/contact_throughput_300k` in the contact baseline JSON. This is
//!   the per-contact fixed-cost gate: it regresses if the engine's event
//!   loop, the buffer/holder structures or the protocol hot path gain a
//!   constant factor.
//!
//! * **Kernel gate** — the batched Eq. 4–9 estimate kernel (detected
//!   SIMD level) over a 4096-entry queue, vs `kernel/rate_rows_4096` in
//!   the kernel baseline JSON. This regresses if the row kernels lose
//!   vectorization or the deterministic rate reduction gains a constant
//!   factor.
//!
//! * **Sharded-throughput gate** — the regional variant of the contact
//!   shape driven through the sharded runtime at 4 shards, vs
//!   `scale_sharded/regional_300k_shards4` in the sharded baseline JSON.
//!   This regresses if the shard routing, the epoch flush, or the
//!   cross-shard barrier path gains a constant factor.
//!
//! * **Sharded-RAPID gate** — in-band RAPID (the paper's protocol,
//!   `ContactConcurrency::NodeDisjoint`: one shared instance, per-node
//!   state partitions) on the regional 300k-window shape at 4 shards, vs
//!   `scale_sharded/regional_rapid_300k_shards4` in the RAPID sharded
//!   baseline JSON. The fleet is 400 nodes — RAPID's learned meeting-time
//!   rows are dense (`n²` per node), so the 20k-node Random shape is out
//!   of reach for any RAPID implementation; the window count is what the
//!   gate holds constant. This regresses if the single-instance epoch
//!   path (state partitioning, shard-view dispatch, metadata barriers)
//!   gains a constant factor.
//!
//! * **Checkpoint-overhead gate** — the windows-heavy scale shape at 12M
//!   windows run twice in-process, checkpointing off then on
//!   (`RAPID_CKPT_EVERY_S=300` ≈ 24 snapshots over the horizon). Relative
//!   rather than baseline-file-driven: the on-arm must stay within 5%
//!   wall-clock of the off-arm (`RAPID_CKPT_OVERHEAD_FACTOR`, default
//!   1.05) and both arms must produce byte-identical reports. The
//!   measurement recorded at PR 10 lives in `BENCH_pr10.json`. Note the
//!   snapshot cadence is sim time, so truncating the shape
//!   (`RAPID_CKPT_GATE_WINDOWS`) keeps the snapshot count while shrinking
//!   the work it amortizes over — the 5% budget holds at the default 12M
//!   windows, not at toy sizes.
//!
//! Usage: `bench_smoke [selection_baseline.json] [contact_baseline.json]
//! [kernel_baseline.json] [sharded_baseline.json] [rapid_baseline.json]`
//! (defaults `BENCH_pr3.json`, `BENCH_pr5.json`, `BENCH_pr7.json`,
//! `BENCH_pr8.json` and `BENCH_pr9.json`).
//! Knobs: `RAPID_BENCH_SMOKE_FACTOR` (default 3.0),
//! `RAPID_BENCH_SMOKE_RUNS` (default 7; the contact and sharded gates use
//! `min(runs, 3)` — their single runs are ~1-4s; the checkpoint-overhead
//! arms use `min(runs, 2)`), `RAPID_CKPT_GATE_WINDOWS` (default
//! 12,000,000) and `RAPID_CKPT_OVERHEAD_FACTOR` (default 1.05).
//! Each gate also prints one machine-readable JSON line
//! (`{"gate": ..., "mean_ms": ..., "min_ms": ..., "peak_rss_mb": ...}`)
//! and everything lands in `results/bench_smoke.json` for artifact
//! upload.

use dtn_mobility::{RegionalFleet, ScaleFleet};
use dtn_sim::{run_sharded, SimConfig, Simulation};
use dtn_sim::{Time, TimeDelta};
use rapid_bench::runner::{run_spec, ContactsSpec, PacketsSpec, RunSpec};
use rapid_bench::scale::{peak_rss_mb, reset_peak_rss};
use rapid_bench::scenarios::selection_scenario;
use rapid_bench::Proto;
use rapid_core::{Rapid, RapidConfig};
use std::time::Instant;

const SELECTION_ID: &str = "selection/contact_with_1000_buffered";
const CONTACT_ID: &str = "scale/contact_throughput_300k";
const KERNEL_ID: &str = "kernel/rate_rows_4096";
const SHARDED_ID: &str = "scale_sharded/regional_300k_shards4";
const RAPID_SHARDED_ID: &str = "scale_sharded/regional_rapid_300k_shards4";
const CKPT_OVERHEAD_ID: &str = "ckpt/overhead_12m_windows";

/// Extracts `"min_ms": <float>` for a bench id from the baseline JSON's
/// `"benches"` object, without a JSON dependency (the file is generated by
/// our own tooling with a fixed shape). Scoping to `"benches"` skips
/// annotation sections that repeat the bench ids.
fn baseline_min_ms(json: &str, id: &str) -> Option<f64> {
    let benches = json.split("\"benches\"").nth(1)?;
    let entry = benches.split(&format!("\"{id}\"")).nth(1)?;
    let after_key = entry.split("\"min_ms\"").nth(1)?;
    let number: String = after_key
        .chars()
        .skip_while(|c| *c == ':' || c.is_whitespace())
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == '+')
        .collect();
    number.parse().ok()
}

/// The truncated windows-heavy scale shape: contact-plan-dominated (6000
/// windows per packet), so wall time is fixed per-contact cost.
fn contact_gate_spec() -> RunSpec {
    scale_spec(300_000)
}

/// The windows-heavy scale shape at an arbitrary window count (the
/// contact gate uses 300k; the checkpoint-overhead gate defaults to 12M).
fn scale_spec(contacts: u64) -> RunSpec {
    let fleet = ScaleFleet {
        nodes: 20_000,
        contacts,
        opportunity_bytes: 2 * 1024,
        contact_duration: TimeDelta::ZERO,
        horizon: Time::from_secs(7200),
        hubs: 64,
        hub_bias: 0.3,
    };
    RunSpec {
        contacts: ContactsSpec::streaming(move || Box::new(fleet.contact_stream(7, 0))),
        packets: PacketsSpec::streaming(move || Box::new(fleet.packet_stream(50, 1024, 7, 0))),
        nodes: fleet.nodes,
        buffer: 16 * 1024,
        deadline: TimeDelta::from_secs(600),
        horizon: fleet.horizon,
        seed: 7,
        noise: None,
        measure_from: Time::ZERO,
        churn: Vec::new(),
        ttl: Some(TimeDelta::from_secs(900)),
    }
}

struct Gate {
    id: &'static str,
    baseline_file: String,
    baseline_ms: f64,
    measured_ms: f64,
    mean_ms: f64,
    threshold_ms: f64,
    runs: u64,
    contacts: u64,
    peak_rss_mb: f64,
}

impl Gate {
    fn passed(&self) -> bool {
        self.measured_ms <= self.threshold_ms
    }

    /// One machine-readable line per gate, for scripts that scrape the
    /// smoke log instead of the results file.
    fn print_json_line(&self) {
        println!(
            "{{\"gate\": \"{}\", \"mean_ms\": {:.6}, \"min_ms\": {:.6}, \"peak_rss_mb\": {:.1}}}",
            self.id, self.mean_ms, self.measured_ms, self.peak_rss_mb
        );
    }
}

fn main() {
    let selection_baseline = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pr3.json".into());
    let contact_baseline = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "BENCH_pr5.json".into());
    let kernel_baseline = std::env::args()
        .nth(3)
        .unwrap_or_else(|| "BENCH_pr7.json".into());
    let sharded_baseline = std::env::args()
        .nth(4)
        .unwrap_or_else(|| "BENCH_pr8.json".into());
    let rapid_sharded_baseline = std::env::args()
        .nth(5)
        .unwrap_or_else(|| "BENCH_pr9.json".into());
    let factor = dtn_sim::env::f64_from_env("RAPID_BENCH_SMOKE_FACTOR", 3.0);
    let runs = rapid_bench::env_u64("RAPID_BENCH_SMOKE_RUNS", 7).max(1);

    let read_baseline = |path: &str, id: &str| -> f64 {
        let json = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        baseline_min_ms(&json, id).unwrap_or_else(|| panic!("no {id} min_ms in {path}"))
    };

    // --- Selection gate. Scenario assembly sits outside the timed region:
    // the smoke measures simulation, not cloning — the simulation is built
    // once and each timed iteration streams the shared scenario through a
    // fresh protocol.
    let selection = {
        let baseline_ms = read_baseline(&selection_baseline, SELECTION_ID);
        let (config, schedule, workload) = selection_scenario(1_000);
        let sim = Simulation::new(config, schedule, workload);
        let run_once = || {
            let mut rapid = Rapid::new(RapidConfig::avg_delay().with_delay_cap(2000.0));
            sim.run(&mut rapid)
        };
        // One warmup, then best-of-N (min is the noise-robust statistic).
        let _ = run_once();
        reset_peak_rss();
        let mut best_ms = f64::INFINITY;
        let mut sum_ms = 0.0;
        for _ in 0..runs {
            let start = Instant::now();
            let report = run_once();
            let ms = start.elapsed().as_secs_f64() * 1e3;
            assert!(report.created() == 1_000, "scenario must run to completion");
            best_ms = best_ms.min(ms);
            sum_ms += ms;
        }
        Gate {
            id: SELECTION_ID,
            baseline_file: selection_baseline,
            baseline_ms,
            measured_ms: best_ms,
            mean_ms: sum_ms / runs as f64,
            threshold_ms: baseline_ms * factor,
            runs,
            contacts: 0,
            peak_rss_mb: peak_rss_mb().unwrap_or(0.0),
        }
    };
    selection.print_json_line();

    // --- Contact-throughput gate.
    let contact = {
        let baseline_ms = read_baseline(&contact_baseline, CONTACT_ID);
        let spec = contact_gate_spec();
        let contact_runs = runs.min(3);
        reset_peak_rss();
        let mut best_ms = f64::INFINITY;
        let mut sum_ms = 0.0;
        let mut contacts = 0;
        for _ in 0..contact_runs {
            let start = Instant::now();
            let report = run_spec(&spec, Proto::Random);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            assert!(
                report.contacts > 250_000,
                "scale shape must drive its contact plan (drove {})",
                report.contacts
            );
            contacts = report.contacts;
            best_ms = best_ms.min(ms);
            sum_ms += ms;
        }
        Gate {
            id: CONTACT_ID,
            baseline_file: contact_baseline,
            baseline_ms,
            measured_ms: best_ms,
            mean_ms: sum_ms / contact_runs as f64,
            threshold_ms: baseline_ms * factor,
            runs: contact_runs,
            contacts,
            peak_rss_mb: peak_rss_mb().unwrap_or(0.0),
        }
    };
    contact.print_json_line();

    // --- Kernel gate: the detected Eq. 4–9 kernel over a 4096-entry
    // queue (the microbench shape `kernel_bench` records).
    let kernel = {
        let baseline_ms = read_baseline(&kernel_baseline, KERNEL_ID);
        let iters = 500;
        let (best_ms, mean_raw_ms, _) = rapid_bench::kbench::measure_rows_stats(
            rapid_core::Kernel::detect(),
            4096,
            iters,
            runs,
        );
        // The baseline records 2000-iteration sweeps; scale to this run's
        // iteration count so thresholds compare like with like.
        let scale = 2000.0 / iters as f64;
        Gate {
            id: KERNEL_ID,
            baseline_file: kernel_baseline,
            baseline_ms,
            measured_ms: best_ms * scale,
            mean_ms: mean_raw_ms * scale,
            threshold_ms: baseline_ms * factor,
            runs,
            contacts: 0,
            peak_rss_mb: peak_rss_mb().unwrap_or(0.0),
        }
    };
    kernel.print_json_line();

    // --- Sharded-throughput gate: the regional contact shape through the
    // sharded runtime (4 shards aligned to 8 regions, 95% local
    // meetings). Fixed per-contact cost of the partitioned executor: epoch
    // queues, the parallel flush, and the cross-shard barrier path.
    let sharded = {
        let baseline_ms = read_baseline(&sharded_baseline, SHARDED_ID);
        let rf = RegionalFleet {
            fleet: ScaleFleet {
                nodes: 20_000,
                contacts: 300_000,
                opportunity_bytes: 2 * 1024,
                contact_duration: TimeDelta::ZERO,
                horizon: Time::from_secs(7200),
                hubs: 64,
                hub_bias: 0.3,
            },
            regions: 8,
            locality: 0.95,
        };
        let partition = rf.partition(4);
        let config = SimConfig {
            nodes: rf.fleet.nodes,
            buffer_capacity: 16 * 1024,
            deadline: Some(TimeDelta::from_secs(600)),
            ttl: Some(TimeDelta::from_secs(900)),
            horizon: rf.fleet.horizon,
            seed: 7,
            ..SimConfig::default()
        };
        let build = || Proto::Random.build(TimeDelta::from_secs(600), TimeDelta::from_secs(7200));
        let sharded_runs = runs.min(3);
        reset_peak_rss();
        let mut best_ms = f64::INFINITY;
        let mut sum_ms = 0.0;
        let mut contacts = 0;
        for _ in 0..sharded_runs {
            let mut windows = rf.contact_stream(7, 0);
            let mut packets = rf.packet_stream(50, 1024, 7, 0);
            let start = Instant::now();
            let report = run_sharded(
                &config,
                &partition,
                &mut windows,
                &mut packets,
                &[],
                None,
                &mut || build(),
            );
            let ms = start.elapsed().as_secs_f64() * 1e3;
            assert!(
                report.contacts > 250_000,
                "regional shape must drive its contact plan (drove {})",
                report.contacts
            );
            contacts = report.contacts;
            best_ms = best_ms.min(ms);
            sum_ms += ms;
        }
        Gate {
            id: SHARDED_ID,
            baseline_file: sharded_baseline,
            baseline_ms,
            measured_ms: best_ms,
            mean_ms: sum_ms / sharded_runs as f64,
            threshold_ms: baseline_ms * factor,
            runs: sharded_runs,
            contacts,
            peak_rss_mb: peak_rss_mb().unwrap_or(0.0),
        }
    };
    sharded.print_json_line();

    // --- Sharded-RAPID gate: the paper's own protocol on the sharded
    // runtime. In-band RAPID is NodeDisjoint — one shared instance whose
    // per-node state partitions are leased to shard epochs — so this
    // times the single-instance flush path rather than per-shard clones.
    let rapid_sharded = {
        let baseline_ms = read_baseline(&rapid_sharded_baseline, RAPID_SHARDED_ID);
        let rf = RegionalFleet {
            fleet: ScaleFleet {
                nodes: 400,
                contacts: 300_000,
                opportunity_bytes: 2 * 1024,
                contact_duration: TimeDelta::ZERO,
                horizon: Time::from_secs(7200),
                hubs: 16,
                hub_bias: 0.3,
            },
            regions: 8,
            locality: 0.95,
        };
        let partition = rf.partition(4);
        let config = SimConfig {
            nodes: rf.fleet.nodes,
            buffer_capacity: 16 * 1024,
            deadline: Some(TimeDelta::from_secs(600)),
            ttl: Some(TimeDelta::from_secs(900)),
            horizon: rf.fleet.horizon,
            seed: 7,
            ..SimConfig::default()
        };
        let build = || Proto::RapidAvg.build(TimeDelta::from_secs(600), TimeDelta::from_secs(7200));
        let rapid_runs = runs.min(3);
        reset_peak_rss();
        let mut best_ms = f64::INFINITY;
        let mut sum_ms = 0.0;
        let mut contacts = 0;
        for _ in 0..rapid_runs {
            let mut windows = rf.contact_stream(7, 0);
            let mut packets = rf.packet_stream(50, 1024, 7, 0);
            let start = Instant::now();
            let report = run_sharded(
                &config,
                &partition,
                &mut windows,
                &mut packets,
                &[],
                None,
                &mut || build(),
            );
            let ms = start.elapsed().as_secs_f64() * 1e3;
            assert!(
                report.contacts > 250_000,
                "regional shape must drive its contact plan (drove {})",
                report.contacts
            );
            contacts = report.contacts;
            best_ms = best_ms.min(ms);
            sum_ms += ms;
        }
        Gate {
            id: RAPID_SHARDED_ID,
            baseline_file: rapid_sharded_baseline,
            baseline_ms,
            measured_ms: best_ms,
            mean_ms: sum_ms / rapid_runs as f64,
            threshold_ms: baseline_ms * factor,
            runs: rapid_runs,
            contacts,
            peak_rss_mb: peak_rss_mb().unwrap_or(0.0),
        }
    };
    rapid_sharded.print_json_line();

    // --- Checkpoint-overhead gate: the windows-heavy scale shape (12M
    // windows by default, `RAPID_CKPT_GATE_WINDOWS` to truncate) run with
    // checkpointing off and on (`RAPID_CKPT_EVERY_S=300` ≈ 24 snapshots
    // over the 7200 s horizon). Relative, not baseline-file-driven: the
    // on-arm must stay within `RAPID_CKPT_OVERHEAD_FACTOR` (default 1.05,
    // the <5% wall-clock budget) of the off-arm measured in the same
    // process, and both arms must produce byte-identical reports.
    let ckpt_windows = rapid_bench::env_u64("RAPID_CKPT_GATE_WINDOWS", 12_000_000);
    let overhead_factor = dtn_sim::env::f64_from_env("RAPID_CKPT_OVERHEAD_FACTOR", 1.05);
    let (ckpt, ckpt_off_min_ms) = {
        let spec = scale_spec(ckpt_windows);
        let ckpt_dir = std::env::temp_dir().join(format!("rapid-ckpt-gate-{}", std::process::id()));
        let arm_runs = runs.min(2);
        let run_once = |checkpointing: bool| {
            if checkpointing {
                std::env::set_var("RAPID_CKPT_EVERY_S", "300");
                std::env::set_var("RAPID_CKPT_DIR", &ckpt_dir);
            } else {
                std::env::remove_var("RAPID_CKPT_EVERY_S");
            }
            let start = Instant::now();
            let report = run_spec(&spec, Proto::Random);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            assert!(
                report.contacts as u64 > ckpt_windows / 2,
                "scale shape must drive its contact plan (drove {})",
                report.contacts
            );
            (ms, report)
        };
        // The arms alternate (off, on, off, on, …) so slow machine-load
        // or thermal drift lands on both arms instead of biasing
        // whichever ran last; best-of-N per arm is the noise-robust
        // statistic for the ratio.
        reset_peak_rss();
        let mut off_min = f64::INFINITY;
        let mut on_min = f64::INFINITY;
        let mut on_sum = 0.0;
        let mut off_report = None;
        let mut on_report = None;
        for _ in 0..arm_runs {
            let (off_ms, off_r) = run_once(false);
            off_min = off_min.min(off_ms);
            off_report = Some(off_r);
            let (on_ms, on_r) = run_once(true);
            on_min = on_min.min(on_ms);
            on_sum += on_ms;
            on_report = Some(on_r);
        }
        let (off_report, on_report) = (off_report.unwrap(), on_report.unwrap());
        let on_mean = on_sum / arm_runs as f64;
        assert_eq!(
            on_report, off_report,
            "checkpointing must not change simulation results"
        );
        // Vacuity probe: the knobs must actually reach the checkpoint
        // machinery in this process. A cheap run with an injected crash
        // only completes if snapshots were written and resumed from.
        std::env::set_var("RAPID_FAULT_CRASH_S", "3600");
        let probe = run_spec(&scale_spec(300_000), Proto::Random);
        std::env::remove_var("RAPID_FAULT_CRASH_S");
        assert!(
            probe.contacts > 250_000,
            "crash-recovery probe must run to completion"
        );
        std::env::remove_var("RAPID_CKPT_EVERY_S");
        std::env::remove_var("RAPID_CKPT_DIR");
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        (
            Gate {
                id: CKPT_OVERHEAD_ID,
                baseline_file: "(off-arm measured in-process)".into(),
                baseline_ms: off_min,
                measured_ms: on_min,
                mean_ms: on_mean,
                threshold_ms: off_min * overhead_factor,
                runs: arm_runs,
                contacts: off_report.contacts,
                peak_rss_mb: peak_rss_mb().unwrap_or(0.0),
            },
            off_min,
        )
    };
    ckpt.print_json_line();

    let gates = [
        &selection,
        &contact,
        &kernel,
        &sharded,
        &rapid_sharded,
        &ckpt,
    ];
    let mut out = String::from("{\n  \"benches\": {\n");
    for (i, g) in gates.into_iter().enumerate() {
        let mut contacts_per_sec = if g.contacts > 0 {
            format!(
                ",\n      \"contacts\": {},\n      \"contacts_per_sec\": {:.0}",
                g.contacts,
                g.contacts as f64 / (g.measured_ms / 1e3)
            )
        } else {
            String::new()
        };
        if g.id == CKPT_OVERHEAD_ID {
            contacts_per_sec.push_str(&format!(
                ",\n      \"off_min_ms\": {:.6},\n      \"overhead_frac\": {:.4}",
                ckpt_off_min_ms,
                g.measured_ms / ckpt_off_min_ms - 1.0
            ));
        }
        out.push_str(&format!(
            "    \"{}\": {{\n      \"baseline_file\": \"{}\",\n      \
             \"baseline_min_ms\": {},\n      \"measured_min_ms\": {:.6},\n      \
             \"measured_mean_ms\": {:.6},\n      \
             \"allowed_factor\": {},\n      \"threshold_ms\": {:.6},\n      \
             \"runs\": {},\n      \"peak_rss_mb\": {:.1},\n      \
             \"verdict\": \"{}\"{}\n    }}{}\n",
            g.id,
            g.baseline_file,
            g.baseline_ms,
            g.measured_ms,
            g.mean_ms,
            if g.id == CKPT_OVERHEAD_ID {
                overhead_factor
            } else {
                factor
            },
            g.threshold_ms,
            g.runs,
            g.peak_rss_mb,
            if g.passed() { "PASS" } else { "FAIL" },
            contacts_per_sec,
            if i + 1 < gates.len() { "," } else { "" },
        ));
    }
    out.push_str("  }\n}\n");
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/bench_smoke.json", &out).expect("write results/bench_smoke.json");
    print!("{out}");

    let mut failed = false;
    for g in gates {
        if !g.passed() {
            eprintln!(
                "bench smoke FAILED: {} took {:.3} ms > threshold {:.3} ms (baseline {:.3} ms)",
                g.id, g.measured_ms, g.threshold_ms, g.baseline_ms
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
