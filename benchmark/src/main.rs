//! `rapid-benchmark`: the benchmark of record for the RAPID reproduction.
//!
//! ```text
//! rapid-benchmark run     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                         [--bless] [--out results.jsonl]
//! rapid-benchmark trace   --workload <name> ...     (same as run --trace 1)
//! rapid-benchmark compare <a.jsonl> <b.jsonl>
//! rapid-benchmark smoke
//! ```
//!
//! `run` prints a header, a table of every metric by name with its unit,
//! and as the last line of standard output one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. It exits non-zero when
//! an operation failed its checks. See `README.md` beside this crate.

mod compare;
mod digest;
mod host;
mod json;
mod metrics;
mod probes;
mod run;
mod stats;
mod trace;
mod workloads;

use run::Args;
use std::process::ExitCode;
use workloads::{Size, Workload};

/// Run length when `--seconds` is not given (`BENCHMARK.json`'s
/// `run_seconds`).
const DEFAULT_SECONDS: f64 = 24.0;

fn usage() -> String {
    format!(
        "usage: rapid-benchmark run|trace --workload <{}> [--seed N] [--seconds S] \
         [--trace 0|1] [--bless] [--out FILE]\n       \
         rapid-benchmark compare <a.jsonl> <b.jsonl>\n       \
         rapid-benchmark smoke",
        Workload::ALL.map(Workload::name).join("|")
    )
}

/// Parses the flags of `run` / `trace`; returns the arguments and whether
/// the run is traced.
fn parse_run(flags: &[String], mut traced: bool) -> Result<(Args, bool), String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::PaperTrace,
        seed: digest::GOLDEN_SEED,
        seconds: DEFAULT_SECONDS,
        size: Size::Full,
        bless: false,
        probes: true,
        out: None,
    };
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))?,
                );
            }
            "--seed" => {
                let v = value()?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not a u64"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = match v.parse::<f64>() {
                    Ok(s) if s.is_finite() && s >= 0.0 => s,
                    _ => return Err(format!("--seconds {v:?} is not a duration")),
                };
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                };
            }
            "--out" => args.out = Some(value()?.into()),
            "--bless" => args.bless = true,
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    args.workload = workload.ok_or_else(|| format!("--workload is required\n{}", usage()))?;
    Ok((args, traced))
}

/// Drives all four workloads, end to end and traced, at toy sizes: a
/// seconds-long check that every path of the harness still runs and every
/// metric is produced.
fn smoke(probes: bool) -> Result<(), String> {
    for workload in Workload::ALL {
        let args = Args {
            workload,
            seed: 3,
            seconds: 0.0,
            size: Size::Toy,
            bless: false,
            // The isolated probes do not depend on the workload.
            probes: probes && workload == Workload::PaperTrace,
            out: None,
        };
        for (mode, outcome) in [
            ("end_to_end", run::end_to_end(&args)?),
            ("traced", run::traced(&args)?),
        ] {
            let expected = match mode {
                "end_to_end" => metrics::END_TO_END.len(),
                _ => metrics::PER_LAYER.len(),
            };
            if !outcome.correct || outcome.metrics.len() != expected || outcome.attempted == 0 {
                return Err(format!(
                    "smoke: {} {mode}: correct={} failed={}/{} metrics={}/{expected}",
                    workload.name(),
                    outcome.correct,
                    outcome.failed,
                    outcome.attempted,
                    outcome.metrics.len(),
                ));
            }
            if let Some((name, value, _)) = outcome.metrics.iter().find(|m| !m.1.is_finite()) {
                return Err(format!("smoke: {} {name} = {value}", workload.name()));
            }
        }
    }
    println!(
        "# smoke: {} workloads x (end_to_end, traced) ok",
        Workload::ALL.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some(cmd @ ("run" | "trace")) => {
            parse_run(&argv[1..], cmd == "trace").and_then(|(args, traced)| {
                let outcome = if traced {
                    run::traced(&args)?
                } else {
                    run::end_to_end(&args)?
                };
                // The result object is the last line of standard output.
                println!("{}", outcome.result_line());
                Ok(outcome.correct)
            })
        }
        Some("compare") if argv.len() == 3 => compare::compare(&argv[1], &argv[2]),
        Some("smoke") if argv.len() == 1 => smoke(true).map(|()| true),
        _ => Err(usage()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("rapid-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use rapid_bench::runner::run_spec;
    use std::sync::Mutex;
    use std::time::Instant;

    /// Tests that run simulations read `RAPID_*` knobs, and some set them;
    /// the process environment is shared, so they take turns.
    static ENV: Mutex<()> = Mutex::new(());

    fn env_lock() -> std::sync::MutexGuard<'static, ()> {
        ENV.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn repo_file(name: &str) -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    /// The `[profile.release]` table of a manifest, as trimmed lines.
    fn release_profile(manifest: &str) -> Vec<String> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(|l| l.trim().to_string())
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    #[test]
    fn profile_matches_root() {
        let ours = release_profile(&repo_file("Cargo.toml"));
        let root = release_profile(&repo_file("../Cargo.toml"));
        assert!(!root.is_empty(), "root manifest has a release profile");
        assert_eq!(
            ours, root,
            "benchmark/Cargo.toml must repeat the root [profile.release]: \
             the harness would otherwise time a differently optimised build"
        );
    }

    #[test]
    fn benchmark_json_publishes_the_code_tables() {
        let doc = Json::parse(&repo_file("../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );

        let str_of = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| (str_of(w, "name"), str_of(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = Workload::ALL
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        assert_eq!(workloads, ours);
        assert!(ours
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

        let e2e: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    str_of(m, "name"),
                    str_of(m, "unit"),
                    str_of(m, "better"),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = metrics::END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.into(),
                    m.unit.into(),
                    m.better.label().into(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(e2e, ours);
        assert!(ours.iter().all(|m| m.3 <= 0.25));
        assert!(ours
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));

        let layers: Vec<(String, String, String)> = doc
            .get("per_layer")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = metrics::PER_LAYER
            .iter()
            .map(|&(name, unit, better)| (name.into(), unit.into(), better.label().into()))
            .collect();
        assert_eq!(layers, ours);
        assert!(ours.len() <= 128);

        // The contract's character sets.
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in metrics::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(metrics::PER_LAYER.iter().map(|m| (m.0, m.1)))
            .chain(Workload::ALL.iter().map(|w| (w.name(), "count")))
        {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} is used twice");
        }
    }

    /// Wrapped and unwrapped runs of every toy workload give equal
    /// reports, on the serial engine and on two shards, and the adapters
    /// see the calls the report implies.
    #[test]
    fn timing_adapters_are_transparent() {
        let _guard = env_lock();
        for workload in Workload::ALL {
            host::scrub_rapid_env(workload.env());
            let clock = Instant::now();
            for op in workload.build(5, Size::Toy) {
                let plain = run_spec(&op.spec, op.proto);
                let traced = trace::run_traced(&op, workload.shards(), clock);
                assert_eq!(plain, traced.report, "{} {}", workload.name(), op.label);
                assert_eq!(plain.contacts, op.expect_contacts, "{}", op.label);
                assert_eq!(plain.created() as u64, op.expect_packets, "{}", op.label);

                let engine = &traced.engine_thread;
                let shards = &traced.shard_threads;
                // One pull per item plus the exhausted pull.
                assert_eq!(
                    engine.calls(trace::Layer::SourcePackets),
                    op.expect_packets + 1
                );
                assert!(engine.calls(trace::Layer::SourceContacts) > op.expect_contacts);
                let driven =
                    engine.calls(trace::Layer::OnContact) + shards.calls(trace::Layer::OnContact);
                assert!(
                    driven >= plain.contacts,
                    "{}: {driven} on_contact calls",
                    op.label
                );
                assert!(traced.engine_self_ns() <= traced.wall_ns());
                if workload.shards() > 1 {
                    assert!(
                        engine.calls(trace::Layer::ShardEpoch) > 0,
                        "epochs were traced"
                    );
                    assert!(
                        shards.calls(trace::Layer::OnContact) > 0,
                        "shard views were traced"
                    );
                    assert_eq!(traced.shard_stats.len(), 2);
                } else {
                    assert_eq!(shards.calls(trace::Layer::OnContact), 0);
                }
            }
        }
        host::scrub_rapid_env(&[]);
    }

    /// Two in-process passes of a workload digest identically, a different
    /// seed does not, and the golden file covers every full-size operation.
    #[test]
    fn digests_are_stable_across_passes() {
        let _guard = env_lock();
        host::scrub_rapid_env(&[]);
        let pass = |seed: u64| -> Vec<u32> {
            Workload::ScaleStream
                .build(seed, Size::Toy)
                .iter()
                .chain(Workload::PaperTrace.build(seed, Size::Toy).iter())
                .map(|op| digest::report_digest(&run_spec(&op.spec, op.proto)))
                .collect()
        };
        let (a, b, other) = (pass(5), pass(5), pass(6));
        assert_eq!(a, b, "same seed, same digests");
        assert_ne!(a, other, "the seed reaches the inputs");
        assert_eq!(digest::pass_digest(&a), digest::pass_digest(&b));

        for workload in Workload::ALL {
            let golden = digest::load_golden(workload.name())
                .expect("golden.json parses")
                .unwrap_or_else(|| panic!("golden.json has no {}", workload.name()));
            let labels: Vec<String> = golden.into_iter().map(|(label, _)| label).collect();
            let expected: Vec<String> = workload
                .build(digest::GOLDEN_SEED, Size::Full)
                .into_iter()
                .map(|op| op.label)
                .collect();
            assert_eq!(labels, expected, "{}", workload.name());
        }
    }

    /// All four workloads and the trace path at toy sizes (the `smoke`
    /// command, minus the isolated probes a debug build makes slow).
    #[test]
    fn smoke_drives_every_workload_and_the_trace_path() {
        let _guard = env_lock();
        smoke(false).expect("smoke");
        host::scrub_rapid_env(&[]);
    }

    #[test]
    fn run_flags_parse_as_the_driver_passes_them() {
        let flags: Vec<String> =
            "--workload regional_rapid_shards2 --seed 11 --seconds 5 --trace 1"
                .split(' ')
                .map(String::from)
                .collect();
        let (args, traced) = parse_run(&flags, false).unwrap();
        assert_eq!(args.workload, Workload::RegionalRapidShards2);
        assert_eq!((args.seed, args.seconds, traced), (11, 5.0, true));
        assert!(parse_run(&["--workload".into(), "nope".into()], false).is_err());
        assert!(parse_run(&[], false).is_err(), "the workload is required");
        assert!(
            parse_run(&flags[..6], true).unwrap().1,
            "`trace` defaults to traced"
        );
    }
}
