//! The two measured commands: the end-to-end run (tracing off) and the
//! traced run that attributes a pass to layers.
//!
//! Both are closed loops with one client: passes run back to back in one
//! process, one workload per process, so the peak resident set belongs to
//! that workload. A pass rebuilds the scenario from the seed (timed as
//! set-up) and runs every operation (timed as wall and CPU); timings are
//! reported as medians with quartiles and the sample count. No tail
//! percentile is reported: a run holds fewer than twenty passes, so none
//! above the median has ten samples beyond it.

use crate::digest::{self, GOLDEN_SEED};
use crate::host;
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes::{self, Readings};
use crate::stats::Quartiles;
use crate::trace::{self, Layer, Span, TracedRun};
use crate::workloads::{Op, Size, Workload};
use dtn_sim::{Checkpointer, ContactConcurrency, RunHooks, SimReport, Snapshot, TimeDelta};
use rapid_bench::runner::{parallel_reduce, run_spec};
use rapid_bench::Proto;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Timed passes a run makes at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// How long to measure; passes repeat until this much has elapsed.
    pub seconds: f64,
    pub size: Size,
    /// Record this run's digests as the golden ones.
    pub bless: bool,
    /// Run the isolated probes in a traced run (off in debug-build tests).
    pub probes: bool,
    /// Append the result, with header and quartiles, to this file.
    pub out: Option<PathBuf>,
}

/// What one invocation found.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// The contract's result object: exactly these four keys.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(name, value, unit)| {
                    (
                        name,
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                    )
                })),
            ),
        ])
    }
}

/// Where span files and scratch checkpoints go (ignored by git).
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Holds every operation to its reference: the workload's invariants, the
/// same operation of the first pass, and the golden file at its seed.
struct Checker {
    golden: Option<Vec<(String, u32)>>,
    /// Digests of the first pass, by operation index.
    first_pass: Vec<Option<u32>>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(args: &Args) -> Result<Self, String> {
        let golden = if args.seed == GOLDEN_SEED && args.size == Size::Full && !args.bless {
            digest::load_golden(args.workload.name())?
        } else {
            None
        };
        Ok(Self {
            golden,
            first_pass: Vec::new(),
            attempted: 0,
            failed: 0,
        })
    }

    /// Judges operation `idx`; `report` is `None` if the run panicked.
    /// Returns the digest of a report that passed.
    fn judge(&mut self, idx: usize, op: &Op, report: Option<&SimReport>) -> Option<u32> {
        self.attempted += 1;
        let verdict = match report {
            None => Err("panicked".to_string()),
            Some(r) => self.verdict(idx, op, r),
        };
        if self.first_pass.len() <= idx {
            self.first_pass.resize(idx + 1, None);
            self.first_pass[idx] = verdict.as_ref().ok().copied();
        }
        match verdict {
            Ok(d) => Some(d),
            Err(why) => {
                self.failed += 1;
                eprintln!("FAILED operation {}: {why}", op.label);
                None
            }
        }
    }

    fn verdict(&self, idx: usize, op: &Op, r: &SimReport) -> Result<u32, String> {
        if r.contacts != op.expect_contacts {
            return Err(format!(
                "drove {} contacts, the sources yield {}",
                r.contacts, op.expect_contacts
            ));
        }
        if r.created() as u64 != op.expect_packets {
            return Err(format!(
                "created {} packets, the sources yield {}",
                r.created(),
                op.expect_packets
            ));
        }
        let d = digest::report_digest(r);
        if let Some(golden) = &self.golden {
            match golden.get(idx) {
                Some((label, want)) if *label == op.label && *want == d => {}
                Some((label, want)) => {
                    return Err(format!(
                        "digest {d:#010x} differs from golden {want:#010x} ({label}); \
                         rerun with --bless only if the change is meant to alter results"
                    ))
                }
                None => return Err("golden file has no entry for this operation".into()),
            }
        }
        match self.first_pass.get(idx) {
            Some(Some(first)) if *first != d => Err(format!(
                "digest {d:#010x} differs from the first pass ({first:#010x}): \
                 the run does not repeat"
            )),
            Some(None) => Err("the first pass of this operation failed".into()),
            _ => Ok(d),
        }
    }
}

/// Simulated outcomes of a pass: means over its primary operations.
#[derive(Debug, Clone, Copy, Default)]
struct SimStats {
    delivery_rate: f64,
    avg_delay_s: f64,
}

/// One untraced pass.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    sim: SimStats,
    /// `(operation label, digest if it passed)` in pass order.
    digests: Vec<(String, Option<u32>)>,
}

/// Set-up, timed: rebuilds the operations from the seed.
fn timed_build(args: &Args) -> (Vec<Op>, f64) {
    let start = Instant::now();
    let ops = args.workload.build(args.seed, args.size);
    (ops, start.elapsed().as_secs_f64())
}

fn untraced_pass(args: &Args, checker: &mut Checker) -> Pass {
    let (ops, setup_s) = timed_build(args);
    let (mut wall_s, mut cpu_s) = (0.0, 0.0);
    let mut sim = SimStats::default();
    let primaries = ops.iter().filter(|op| op.primary).count().max(1) as f64;
    let mut digests = Vec::with_capacity(ops.len());
    for (idx, op) in ops.iter().enumerate() {
        let cpu0 = host::cpu_seconds();
        let start = Instant::now();
        let report = catch_unwind(AssertUnwindSafe(|| run_spec(&op.spec, op.proto))).ok();
        wall_s += start.elapsed().as_secs_f64();
        cpu_s += host::cpu_seconds() - cpu0;
        if let (true, Some(r)) = (op.primary, &report) {
            sim.delivery_rate += r.delivery_rate() / primaries;
            sim.avg_delay_s += r.avg_delay_secs().unwrap_or(0.0) / primaries;
        }
        digests.push((op.label.clone(), checker.judge(idx, op, report.as_ref())));
    }
    Pass {
        setup_s,
        wall_s,
        cpu_s,
        sim,
        digests,
    }
}

/// The warm-up pass: untimed, fills caches and the allocator, and fixes
/// the digests every later pass must repeat. Its operations are judged
/// (so a broken run is loud) but not counted: `failed / attempted` is over
/// measured passes.
fn warm_up(args: &Args, checker: &mut Checker) -> Result<Pass, String> {
    let pass = untraced_pass(args, checker);
    (checker.attempted, checker.failed) = (0, 0);
    if args.bless {
        if args.seed != GOLDEN_SEED || args.size != Size::Full {
            return Err(format!(
                "--bless records the golden seed {GOLDEN_SEED} at full size only"
            ));
        }
        let blessed: Vec<(String, u32)> = pass
            .digests
            .iter()
            .map(|(label, d)| d.map(|d| (label.clone(), d)))
            .collect::<Option<_>>()
            .ok_or("refusing to bless a pass with a failed operation")?;
        digest::bless(args.workload.name(), &blessed)?;
        eprintln!(
            "blessed {} operations of {} into golden.json",
            blessed.len(),
            args.workload.name()
        );
    }
    Ok(pass)
}

/// One table row: `(name, value, unit, quartiles, note)`.
type Row = (&'static str, f64, &'static str, Option<Quartiles>, String);

fn print_table(rows: &[Row]) {
    println!(
        "# {:<38} {:>14}  {:<9} {:>12} {:>12} {:>3}  note",
        "metric", "median/value", "unit", "q1", "q3", "n"
    );
    for (name, value, unit, q, note) in rows {
        match q {
            Some(q) => println!(
                "# {name:<38} {value:>14.6}  {unit:<9} {:>12.6} {:>12.6} {:>3}  {note}",
                q.q1, q.q3, q.n
            ),
            None => println!(
                "# {name:<38} {value:>14.6}  {unit:<9} {:>12} {:>12} {:>3}  {note}",
                "-", "-", "-"
            ),
        }
    }
}

fn append_out(
    args: &Args,
    header: &Json,
    outcome: &Outcome,
    quartiles: Json,
) -> Result<(), String> {
    let Some(path) = &args.out else {
        return Ok(());
    };
    let Json::Obj(mut line) = outcome.result_line() else {
        unreachable!("result_line is an object")
    };
    line.insert(0, ("header".into(), header.clone()));
    line.push(("quartiles".into(), quartiles));
    use std::io::Write;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{}", Json::Obj(line)))
        .map_err(|e| format!("cannot append to {}: {e}", path.display()))
}

/// The end-to-end run: tracing off, every end-to-end metric by name.
pub fn end_to_end(args: &Args) -> Result<Outcome, String> {
    let env = host::scrub_rapid_env(args.workload.env());
    let header = host::header(
        args.workload.name(),
        args.workload.why(),
        args.seed,
        "end_to_end",
        &env,
    );
    println!("# {header}");

    let mut checker = Checker::new(args)?;
    let reference = warm_up(args, &mut checker)?;

    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let pass_start = Instant::now();
        passes.push(untraced_pass(args, &mut checker));
        let last = pass_start.elapsed().as_secs_f64();
        // Stop where the elapsed time is nearest to `--seconds`.
        if passes.len() >= MIN_PASSES
            && started.elapsed().as_secs_f64() + last / 2.0 >= args.seconds
        {
            break;
        }
    }

    let column = |f: fn(&Pass) -> f64| Quartiles::of(&passes.iter().map(f).collect::<Vec<_>>());
    let wall = column(|p| p.wall_s);
    let cpu = column(|p| p.cpu_s);
    let setup = column(|p| p.setup_s);
    let values = [
        ("wall_s", wall.median, Some(wall)),
        ("cpu_s", cpu.median, Some(cpu)),
        ("peak_rss_mb", host::peak_rss_mb(), None),
        ("setup_s", setup.median, Some(setup)),
        ("sim_delivery_rate", reference.sim.delivery_rate, None),
        ("sim_avg_delay_s", reference.sim.avg_delay_s, None),
    ];

    let failed_frac = checker.failed as f64 / checker.attempted as f64;
    let mut rows: Vec<Row> = Vec::new();
    let mut metrics = Vec::new();
    let mut quartiles = Vec::new();
    for (m, (name, value, q)) in END_TO_END.iter().zip(values) {
        assert_eq!(m.name, name, "metric table and measurements are in step");
        let note = format!("{}, {} is better", m.domain, m.better.label());
        rows.push((name, value, m.unit, q, note));
        metrics.push((m.name, value, m.unit));
        if let Some(q) = q {
            quartiles.push((
                name,
                Json::obj([
                    ("q1", Json::Num(q.q1)),
                    ("q3", Json::Num(q.q3)),
                    ("n", Json::Num(q.n as f64)),
                ]),
            ));
        }
    }
    rows.push((
        "failed_frac",
        failed_frac,
        "fraction",
        None,
        "host, lower is better".into(),
    ));
    print_table(&rows);
    let first: Vec<u32> = reference.digests.iter().filter_map(|(_, d)| *d).collect();
    println!(
        "# pass digest {:#010x} over {} operations; golden: {}; failed {}/{} over {} timed passes (+1 warm-up)",
        digest::pass_digest(&first),
        reference.digests.len(),
        match (&checker.golden, args.bless) {
            (_, true) => "blessed",
            (Some(_), _) => "checked",
            (None, _) => "not applicable at this seed/size",
        },
        checker.failed,
        checker.attempted,
        passes.len(),
    );

    let outcome = Outcome {
        correct: checker.failed == 0,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
    };
    quartiles.push((
        "wall_s_passes",
        Json::Arr(passes.iter().map(|p| Json::Num(p.wall_s)).collect()),
    ));
    append_out(args, &header, &outcome, Json::obj(quartiles))?;
    Ok(outcome)
}

/// One traced pass.
struct TracedPass {
    setup: (u64, u64),
    span: (u64, u64),
    /// The operations and, index for index, their traced runs.
    ops: Vec<Op>,
    runs: Vec<TracedRun>,
}

impl TracedPass {
    fn wall_s(&self) -> f64 {
        self.runs.iter().map(TracedRun::wall_ns).sum::<u64>() as f64 / 1e9
    }
}

fn traced_pass(args: &Args, checker: &mut Checker, clock: Instant) -> TracedPass {
    let ns = |t: Instant| (t - clock).as_nanos() as u64;
    let pass_start = Instant::now();
    let (ops, _) = timed_build(args);
    let setup_end = Instant::now();
    let runs: Vec<TracedRun> = ops
        .iter()
        .enumerate()
        .map(|(idx, op)| {
            let run = trace::run_traced(op, args.workload.shards(), clock);
            checker.judge(idx, op, Some(&run.report));
            run
        })
        .collect();
    TracedPass {
        setup: (ns(pass_start), ns(setup_end)),
        span: (ns(pass_start), ns(Instant::now())),
        ops,
        runs,
    }
}

/// Per-layer readings of the traced passes: counts from the last pass
/// (they repeat exactly), times as the mean over passes.
fn layer_readings(passes: &[TracedPass], shards: usize) -> Result<Readings, String> {
    let last = passes.last().expect("at least one traced pass");
    let k = passes.len() as f64;
    let mean_s =
        |f: &dyn Fn(&TracedPass) -> u64| passes.iter().map(f).sum::<u64>() as f64 / k / 1e9;
    let both = |run: &TracedRun, l: Layer, f: fn(&trace::CallLog, Layer) -> u64| {
        f(&run.engine_thread, l) + f(&run.shard_threads, l)
    };
    let calls = |l: Layer| -> f64 {
        last.runs
            .iter()
            .map(|r| both(r, l, trace::CallLog::calls))
            .sum::<u64>() as f64
    };
    let busy_s = |l: Layer| -> f64 {
        mean_s(&|p: &TracedPass| {
            p.runs
                .iter()
                .map(|r| both(r, l, trace::CallLog::busy_ns))
                .sum()
        })
    };
    let routing_s = mean_s(&|p: &TracedPass| p.runs.iter().map(TracedRun::routing_busy_ns).sum());
    let routing_of = |proto: Proto| {
        mean_s(&|p: &TracedPass| {
            p.runs
                .iter()
                .zip(&p.ops)
                .filter(|(_, op)| op.proto == proto)
                .map(|(r, _)| r.routing_busy_ns())
                .sum()
        })
    };
    let engine_s = mean_s(&|p: &TracedPass| p.runs.iter().map(TracedRun::engine_self_ns).sum());
    let contacts = calls(Layer::OnContact).max(1.0);

    let mut out: Readings = vec![
        ("source.contacts.calls", calls(Layer::SourceContacts)),
        ("source.contacts.busy_s", busy_s(Layer::SourceContacts)),
        ("source.packets.calls", calls(Layer::SourcePackets)),
        ("source.packets.busy_s", busy_s(Layer::SourcePackets)),
        ("routing.on_contact.calls", calls(Layer::OnContact)),
        ("routing.on_contact.busy_s", busy_s(Layer::OnContact)),
        ("routing.make_room.calls", calls(Layer::MakeRoom)),
        ("routing.make_room.busy_s", busy_s(Layer::MakeRoom)),
        (
            "routing.on_packet_created.calls",
            calls(Layer::OnPacketCreated),
        ),
        (
            "routing.on_packet_created.busy_s",
            busy_s(Layer::OnPacketCreated),
        ),
        ("routing.lifecycle.calls", calls(Layer::Lifecycle)),
        ("routing.lifecycle.busy_s", busy_s(Layer::Lifecycle)),
        ("routing.ns_per_contact", routing_s * 1e9 / contacts),
        ("routing.rapid.busy_s", routing_of(Proto::RapidAvg)),
        ("routing.maxprop.busy_s", routing_of(Proto::MaxProp)),
        (
            "routing.replications",
            last.runs.iter().map(|r| r.report.replications).sum::<u64>() as f64,
        ),
        ("engine.self_s", engine_s),
        ("engine.ns_per_contact", engine_s * 1e9 / contacts),
    ];

    // Shard telemetry comes from the director's own `ShardStats`.
    let stats: Vec<_> = last.runs.iter().flat_map(|r| &r.shard_stats).collect();
    if shards > 1 {
        if stats.is_empty()
            || stats
                .iter()
                .any(|s| s.concurrency != ContactConcurrency::NodeDisjoint)
        {
            return Err(format!(
                "sharded workload executed tier {:?}, not node_disjoint: \
                 the traced run timed a fallback",
                stats.first().map(|s| s.concurrency.label())
            ));
        }
        let shard_busy = |f: &dyn Fn(&[f64]) -> f64| {
            passes
                .iter()
                .map(|p| {
                    let busy: Vec<f64> = p
                        .runs
                        .iter()
                        .flat_map(|r| &r.shard_stats)
                        .map(|s| s.busy.as_secs_f64())
                        .collect();
                    f(&busy)
                })
                .sum::<f64>()
                / k
        };
        let max = shard_busy(&|b| b.iter().copied().fold(0.0, f64::max));
        let sum = shard_busy(&|b| b.iter().sum());
        let wall = passes.iter().map(TracedPass::wall_s).sum::<f64>() / k;
        out.extend([
            ("shard.busy_s.max", max),
            ("shard.busy_s.sum", sum),
            ("shard.director_s", wall - max),
            ("shard.efficiency", sum / (shards as f64 * wall)),
            ("shard.node_disjoint", 1.0),
        ]);
    }

    let (meta, data) = last
        .runs
        .iter()
        .zip(&last.ops)
        .filter(|(_, op)| op.primary)
        .fold((0u64, 0u64), |(m, d), (r, _)| {
            (m + r.report.metadata_bytes, d + r.report.data_bytes)
        });
    out.extend([
        (
            "core.control.metadata_frac",
            if data == 0 {
                0.0
            } else {
                meta as f64 / data as f64
            },
        ),
        (
            "sim.expired",
            last.runs.iter().map(|r| r.report.expired).sum::<u64>() as f64,
        ),
    ]);
    Ok(out)
}

/// The spans of one traced pass: the pass, its set-up, one span per
/// operation, and the sampled calls (shard-worker calls under the epoch
/// that contains them).
fn pass_spans(pass: &TracedPass) -> Vec<Span> {
    let mut spans = vec![
        Span {
            name: "pass".into(),
            start_ns: pass.span.0,
            end_ns: pass.span.1,
            parent: None,
            run: None,
        },
        Span {
            name: "setup".into(),
            start_ns: pass.setup.0,
            end_ns: pass.setup.1,
            parent: Some(0),
            run: None,
        },
    ];
    for (idx, (run, op)) in pass.runs.iter().zip(&pass.ops).enumerate() {
        let label = &op.label;
        let op_span = spans.len();
        spans.push(Span {
            name: format!("run_spec:{label}"),
            start_ns: run.start_ns,
            end_ns: run.end_ns,
            parent: Some(0),
            run: Some(idx),
        });
        let first_call = spans.len();
        for s in &run.engine_thread.samples {
            spans.push(Span {
                name: s.layer.name().into(),
                start_ns: s.start_ns,
                end_ns: s.end_ns,
                parent: Some(op_span),
                run: Some(idx),
            });
        }
        let epochs: Vec<usize> = (first_call..spans.len())
            .filter(|&i| spans[i].name == Layer::ShardEpoch.name())
            .collect();
        for s in &run.shard_threads.samples {
            let epoch = epochs
                .iter()
                .copied()
                .find(|&e| spans[e].start_ns <= s.start_ns && s.end_ns <= spans[e].end_ns);
            spans.push(Span {
                name: format!("{}@shard{}", s.layer.name(), s.shard.unwrap_or(0)),
                start_ns: s.start_ns,
                end_ns: s.end_ns,
                parent: epoch.or(Some(op_span)),
                run: Some(idx),
            });
        }
    }
    spans
}

fn write_span_file(args: &Args, header: &Json, pass: &TracedPass) -> Result<PathBuf, String> {
    let spans = pass_spans(pass);
    let mut selfs = trace::self_times(&spans);
    // An operation's children are sampled, so its self time comes from the
    // full per-layer sums instead of the spans kept.
    for (span, self_ns) in spans.iter().zip(&mut selfs) {
        if let (Some(0), Some(run)) = (span.parent, span.run) {
            *self_ns = pass.runs[run].engine_self_ns();
        }
    }
    let opt = |v: Option<usize>| v.map_or(Json::Null, |v| Json::Num(v as f64));
    let span_rows = spans
        .iter()
        .zip(&selfs)
        .enumerate()
        .map(|(id, (s, self_ns))| {
            Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::str(s.name.clone())),
                ("start_us", Json::Num(s.start_ns as f64 / 1e3)),
                ("end_us", Json::Num(s.end_ns as f64 / 1e3)),
                ("self_us", Json::Num(*self_ns as f64 / 1e3)),
                ("parent", opt(s.parent)),
                ("run", opt(s.run)),
            ])
        });
    let mut layer_rows = Vec::new();
    for (idx, (run, op)) in pass.runs.iter().zip(&pass.ops).enumerate() {
        let label = &op.label;
        for (thread, log) in [
            ("engine", &run.engine_thread),
            ("shards", &run.shard_threads),
        ] {
            for layer in Layer::ALL {
                if log.calls(layer) > 0 {
                    layer_rows.push(Json::obj([
                        ("run", Json::Num(idx as f64)),
                        ("op", Json::str(label.clone())),
                        ("thread", Json::str(thread)),
                        ("layer", Json::str(layer.name())),
                        ("calls", Json::Num(log.calls(layer) as f64)),
                        ("busy_s", Json::Num(log.busy_s(layer))),
                    ]));
                }
            }
        }
        layer_rows.push(Json::obj([
            ("run", Json::Num(idx as f64)),
            ("op", Json::str(label.clone())),
            ("thread", Json::str("engine")),
            ("layer", Json::str("engine.self")),
            ("calls", Json::Num(1.0)),
            ("busy_s", Json::Num(run.engine_self_ns() as f64 / 1e9)),
        ]));
    }
    let doc = Json::obj([
        ("header", header.clone()),
        (
            "note",
            Json::str(format!(
                "every call is counted in `layers`; `spans` keeps the pass, set-up and \
                 operation spans plus the first {} calls of each layer per run (an \
                 operation's self_us is its engine.self; a sampled epoch's counts only \
                 the worker calls kept)",
                trace::SAMPLED_CALLS
            )),
        ),
        ("spans", Json::Arr(span_rows.collect())),
        ("layers", Json::Arr(layer_rows)),
    ]);
    let dir = out_dir();
    let suffix = if args.size == Size::Toy { ".toy" } else { "" };
    let path = dir.join(format!("{}{suffix}.trace.json", args.workload.name()));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, doc.pretty()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Runs the pass once more with `knob=value` set, checks it against the
/// reference digests (no knob may change a result), and returns its wall
/// seconds.
fn pass_with_knob(args: &Args, checker: &mut Checker, knob: &str, value: &str) -> f64 {
    let previous = std::env::var(knob).ok();
    std::env::set_var(knob, value);
    let ops = args.workload.build(args.seed, args.size);
    let start = Instant::now();
    // `parallel_reduce` is the figure binaries' sweep driver; at
    // RAPID_JOBS=1 (any other knob) it degenerates to the serial loop.
    parallel_reduce(
        ops.len(),
        |idx| {
            catch_unwind(AssertUnwindSafe(|| {
                run_spec(&ops[idx].spec, ops[idx].proto)
            }))
            .ok()
        },
        |idx, report| {
            checker.judge(idx, &ops[idx], report.as_ref());
        },
    );
    let wall_s = start.elapsed().as_secs_f64();
    match previous {
        Some(v) => std::env::set_var(knob, v),
        None => std::env::remove_var(knob),
    }
    wall_s
}

/// One extra `scale_stream` pass through `run_streaming_hooked` with a
/// `Checkpointer` every 300 simulated seconds, then the newest snapshot
/// re-encoded and decoded from outside.
fn checkpoint_probe(
    args: &Args,
    checker: &mut Checker,
    untraced_s: f64,
) -> Result<Readings, String> {
    let dir = out_dir().join(format!("ckpt-{}", std::process::id()));
    let io = |e: std::io::Error| format!("checkpoint probe in {}: {e}", dir.display());
    let _ = std::fs::remove_dir_all(&dir);
    let ops = args.workload.build(args.seed, args.size);
    let mut wall_s = 0.0;
    for (idx, op) in ops.iter().enumerate() {
        // Keep every snapshot, so the directory listing counts the saves.
        let mut ckpt = Checkpointer::new(&dir, TimeDelta::from_secs(300), 4096).map_err(io)?;
        let (config, measured_len) = trace::engine_config(op);
        let mut contacts = op.spec.contacts.source();
        let mut packets = op.spec.packets.source();
        let mut routing = op.proto.build(op.spec.deadline, measured_len);
        let start = Instant::now();
        let report = dtn_sim::run_streaming_hooked(
            &config,
            contacts.as_mut(),
            packets.as_mut(),
            &op.spec.churn,
            op.spec.noise,
            routing.as_mut(),
            RunHooks {
                checkpoint: Some(&mut ckpt),
                ..RunHooks::default()
            },
        );
        wall_s += start.elapsed().as_secs_f64();
        checker.judge(idx, op, Some(&report));
    }
    let saves = std::fs::read_dir(&dir).map_err(io)?.count();
    let snapshot = dtn_sim::load_latest(&dir)
        .map_err(io)?
        .ok_or("checkpoint probe wrote no loadable snapshot")?
        .snapshot;
    let _ = std::fs::remove_dir_all(&dir);
    let mut bytes = Vec::new();
    let (mut encode_ns, mut decode_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let start = Instant::now();
        bytes = snapshot.encode();
        encode_ns = encode_ns.min(start.elapsed().as_nanos() as f64);
        let start = Instant::now();
        std::hint::black_box(Snapshot::decode(&bytes)?);
        decode_ns = decode_ns.min(start.elapsed().as_nanos() as f64);
    }
    Ok(vec![
        ("ckpt.saves", saves as f64),
        ("ckpt.snapshot_bytes", bytes.len() as f64),
        ("ckpt.encode_ms", encode_ns / 1e6),
        ("ckpt.decode_ms", decode_ns / 1e6),
        ("ckpt.overhead_frac", wall_s / untraced_s - 1.0),
    ])
}

/// The traced run: every per-layer metric by name, and the span file.
pub fn traced(args: &Args) -> Result<Outcome, String> {
    // First, while the heap is still fresh (see the probe).
    let mut readings = if args.probes {
        probes::meeting_row_bytes()
    } else {
        Vec::new()
    };
    let env = host::scrub_rapid_env(args.workload.env());
    let header = host::header(
        args.workload.name(),
        args.workload.why(),
        args.seed,
        "traced",
        &env,
    );
    println!("# {header}");

    let mut checker = Checker::new(args)?;
    let reference = warm_up(args, &mut checker)?;
    let pass_estimate = reference.wall_s + reference.setup_s;

    // Alternate untraced and traced passes (so drift lands on both) for
    // as long as `--seconds` allows after reserving the extra passes and
    // the isolated probes that follow.
    let extra_passes = match args.workload {
        Workload::PaperTrace => 2.0,
        Workload::ScaleStream | Workload::RegionalRapid => 1.3,
        Workload::RegionalRapidShards2 => 0.0,
    };
    let reserve = extra_passes * pass_estimate + if args.probes { 5.0 } else { 0.0 };
    let started = Instant::now();
    let clock = Instant::now();
    let mut untraced_walls = Vec::new();
    let mut traced_passes = Vec::new();
    loop {
        untraced_walls.push(untraced_pass(args, &mut checker).wall_s);
        traced_passes.push(traced_pass(args, &mut checker, clock));
        let next_pair = 2.0 * pass_estimate;
        if started.elapsed().as_secs_f64() + reserve + next_pair / 2.0 >= args.seconds {
            break;
        }
    }
    let untraced = Quartiles::of(&untraced_walls);
    let traced_wall = Quartiles::of(
        &traced_passes
            .iter()
            .map(TracedPass::wall_s)
            .collect::<Vec<_>>(),
    );

    readings.extend(layer_readings(&traced_passes, args.workload.shards())?);
    readings.push((
        "trace.overhead_frac",
        traced_wall.median / untraced.median - 1.0,
    ));

    // The other parallel layers and the checkpoint layer, each on the
    // workload that owns it: one extra pass against the untraced median.
    match args.workload {
        Workload::PaperTrace => readings.extend([
            (
                "runner.jobs2.speedup",
                untraced.median / pass_with_knob(args, &mut checker, "RAPID_JOBS", "2"),
            ),
            // The vector kernel's worth in a real run, not a microbench.
            (
                "core.kernel.scalar_slowdown_frac",
                pass_with_knob(args, &mut checker, "RAPID_KERNEL", "scalar") / untraced.median
                    - 1.0,
            ),
        ]),
        Workload::RegionalRapid => readings.push((
            "par.intra2.speedup",
            untraced.median / pass_with_knob(args, &mut checker, "RAPID_INTRA_JOBS", "2"),
        )),
        Workload::ScaleStream => {
            readings.extend(checkpoint_probe(args, &mut checker, untraced.median)?)
        }
        Workload::RegionalRapidShards2 => {}
    }
    if args.probes {
        readings.extend(probes::isolated());
    }

    let span_file = write_span_file(args, &header, traced_passes.last().expect("one pass"))?;

    // Every per-layer metric is reported for every workload; a layer the
    // workload does not exercise reads 0.
    let mut rows: Vec<Row> = Vec::new();
    let mut metrics = Vec::new();
    for &(name, unit, better) in PER_LAYER {
        let value = readings
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v);
        rows.push((
            name,
            value,
            unit,
            None,
            format!("{} is better", better.label()),
        ));
        metrics.push((name, value, unit));
    }
    debug_assert!(
        readings
            .iter()
            .all(|(n, _)| PER_LAYER.iter().any(|(m, _, _)| m == n)),
        "every reading has a row in the metric table"
    );
    print_table(&rows);
    println!(
        "# {} traced + {} untraced passes (+1 warm-up): traced wall {:.4} s vs untraced {:.4} s; \
         failed {}/{}; spans in {}",
        traced_passes.len(),
        untraced_walls.len(),
        traced_wall.median,
        untraced.median,
        checker.failed,
        checker.attempted,
        span_file.display(),
    );

    let outcome = Outcome {
        correct: checker.failed == 0,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
    };
    append_out(args, &header, &outcome, Json::obj::<String>([]))?;
    Ok(outcome)
}
