//! The `scale` scenario family: proof that the streaming pipeline runs
//! fleets far past anything a materialized schedule could hold.
//!
//! Defaults: 100 000 nodes and ≈1.2 million contact windows drawn from the
//! sparse [`ScaleFleet`] generator — the windows are pulled straight into
//! the engine and dropped after being driven, so the full contact plan
//! never exists in memory. Three registered plans share one measure step
//! (reset peak RSS → build the run → time it → read the peak → row):
//! `scale` (per-window stream), `scale_compressed` (periodic-atom plan
//! expanded lazily) and `scale_sharded` (regional fleet under
//! `RAPID_SHARDS`).
//!
//! Knobs (all env): `RAPID_SCALE_NODES`, `RAPID_SCALE_WINDOWS`,
//! `RAPID_SCALE_PACKETS`, `RAPID_SCALE_HORIZON_S`,
//! `RAPID_SCALE_PROTO` (`scale_sharded` only: `random` | `rapid`) and
//! `RAPID_SCALE_MAX_RSS_MB` (> 0 ⇒ the plan fails if peak RSS exceeds the
//! bound — the CI memory check).

use crate::proto::Proto;
use crate::runner::{env_partition, run_spec_on, ContactsSpec, PacketsSpec, RunSpec};
use crate::tsv::{f, Tsv};
use crate::{env_u64, registry, root_seed};
use dtn_mobility::{RegionalFleet, ScaleFleet};
use dtn_sim::{CompiledPlan, Partition, ShardStats, Time, TimeDelta};
use std::sync::Arc;

/// Packet size (matches the rest of the harness: 1 KB).
pub const PACKET_BYTES: u64 = 1024;

/// Hub gateways user traffic is addressed to.
const HUBS: usize = 64;

/// Expected windows per periodic route of the compressed plans: one atom
/// per ~200 windows keeps the plan a few thousandths the size of its
/// expansion.
const WINDOWS_PER_ROUTE: u64 = 200;

/// Contiguous regions of the `scale_sharded` fleet; shard boundaries fall
/// on region boundaries.
const REGIONS: usize = 64;

/// Share of `scale_sharded` meetings that stay inside one region; the
/// rest ride the gateway backbone.
const LOCALITY: f64 = 0.95;

/// The scale laboratory: a sparse fleet plus workload/buffer calibration.
#[derive(Debug, Clone, Copy)]
pub struct ScaleLab {
    /// The sparse fleet (nodes, expected windows, opportunity, horizon).
    pub fleet: ScaleFleet,
    /// Expected packet creations over the horizon.
    pub packets: u64,
    /// Per-node buffer capacity, bytes.
    pub buffer: u64,
    /// Delivery deadline (reporting only).
    pub deadline: TimeDelta,
    /// Packet TTL — keeps replica state bounded over long horizons.
    pub ttl: TimeDelta,
    /// Root seed.
    pub seed: u64,
}

impl ScaleLab {
    /// Defaults (overridable via the `RAPID_SCALE_*` env knobs): 100k
    /// nodes, 1.2M expected windows, 50k packets over a 2-hour horizon,
    /// user-to-gateway traffic toward 64 hubs.
    pub fn from_env(seed: u64) -> Self {
        let nodes = env_u64("RAPID_SCALE_NODES", 100_000) as usize;
        let windows = env_u64("RAPID_SCALE_WINDOWS", 1_200_000);
        let packets = env_u64("RAPID_SCALE_PACKETS", 50_000);
        let horizon = Time::from_secs(env_u64("RAPID_SCALE_HORIZON_S", 7200));
        // Calibration note: once the schedule itself streams, peak memory
        // and wall time are made of *world state* — replica metadata,
        // holder lists, full buffers. The small per-contact opportunity
        // (2 packets each way) damps Random's flooding so replica counts
        // stay in the tens per packet, the 16-packet buffers bound
        // per-node state, and the 15-minute TTL gives a packet a
        // multi-contact lifetime (a node sees ~1 contact per 5 minutes at
        // the default density) without letting replicas pile up.
        Self {
            fleet: ScaleFleet {
                nodes,
                contacts: windows,
                opportunity_bytes: 2 * 1024,
                contact_duration: TimeDelta::ZERO,
                horizon,
                hubs: HUBS.min(nodes),
                hub_bias: 0.3,
            },
            packets,
            buffer: 16 * 1024,
            deadline: TimeDelta::from_secs(600),
            ttl: TimeDelta::from_secs(900),
            seed,
        }
    }

    /// One streamed run: both sources are per-run generator streams.
    pub fn spec(&self, run: u32) -> RunSpec {
        let fleet = self.fleet;
        let (seed, packets) = (self.seed, self.packets);
        RunSpec {
            contacts: ContactsSpec::streaming(move || {
                Box::new(fleet.contact_stream(seed, u64::from(run)))
            }),
            packets: PacketsSpec::streaming(move || {
                Box::new(fleet.packet_stream(packets, PACKET_BYTES, seed, u64::from(run)))
            }),
            nodes: self.fleet.nodes,
            buffer: self.buffer,
            deadline: self.deadline,
            horizon: self.fleet.horizon,
            seed: self.seed ^ u64::from(run),
            noise: None,
            measure_from: Time::ZERO,
            churn: Vec::new(),
            ttl: Some(self.ttl),
        }
    }

    /// Route count for the compressed plans: one per 200 expected windows.
    pub fn routes(&self) -> usize {
        (self.fleet.contacts / WINDOWS_PER_ROUTE).max(1) as usize
    }

    /// The compressed contact plan for one run: `routes` periodic generator
    /// atoms whose expansion walks the same fleet shape as
    /// [`ScaleFleet::contact_stream`] — hub-biased pairs, the same per-window
    /// opportunity — but held as O(routes) atoms instead of O(windows)
    /// structs.
    pub fn compiled_plan(&self, routes: usize, run: u32) -> Arc<CompiledPlan> {
        Arc::new(self.fleet.periodic_plan(routes, self.seed, u64::from(run)))
    }

    /// One run over a compiled plan: contacts expand lazily from the plan's
    /// atom cursor, packets stream exactly as in [`ScaleLab::spec`].
    pub fn spec_compressed(&self, plan: &Arc<CompiledPlan>, run: u32) -> RunSpec {
        RunSpec {
            contacts: ContactsSpec::compiled(Arc::clone(plan)),
            ..self.spec(run)
        }
    }

    /// One run of the regional scenario: `rf`'s compiled plan expanded
    /// lazily, packets streamed from its region-local workload.
    pub fn spec_regional(&self, rf: &RegionalFleet, plan: &Arc<CompiledPlan>, run: u32) -> RunSpec {
        let (rf, seed, packets) = (*rf, self.seed, self.packets);
        RunSpec {
            contacts: ContactsSpec::compiled(Arc::clone(plan)),
            packets: PacketsSpec::streaming(move || {
                Box::new(rf.packet_stream(packets, PACKET_BYTES, seed, u64::from(run)))
            }),
            ..self.spec(run)
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), if the
/// platform exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Best-effort reset of the `VmHWM` high-water mark (Linux: writing `5`
/// to `/proc/self/clear_refs`), so each measurement covers the run it
/// brackets rather than the process lifetime — `fig_all` executes plans
/// in-process, and without the reset `scale` would report whatever peak
/// an earlier experiment reached. Freed-but-cached allocator pages can
/// still inflate a reading taken after another plan; `fig_all scale` on
/// its own (what CI runs) is the clean-room measurement.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The peak-RSS bound from `RAPID_SCALE_MAX_RSS_MB` (0 = unbounded).
fn max_rss_mb_from_env() -> u64 {
    env_u64("RAPID_SCALE_MAX_RSS_MB", 0)
}

/// The cells a plan puts around the measure step's own; a row reads
/// `lead… contacts_driven packets_created delivery_rate expired mid…
/// wall_s peak_rss_mb tail…`.
struct PlanCells {
    lead: Vec<String>,
    mid: Vec<String>,
    tail: Vec<String>,
}

/// The one measure step of the scale plans: reset the RSS high-water
/// mark, let `build` build the run (so a compiled plan is part of its own
/// footprint), time the engine over `partition`, read
/// the peak and emit the row. Closes with the summary comment, enforces
/// `max_rss_mb` when it is non-zero and returns the shard telemetry. A
/// plan invocation measures one run, so every plan passes run index 0 to
/// the generators and writes `0` in its `run` column.
fn measure_run(
    tsv: &mut Tsv,
    max_rss_mb: u64,
    proto: Proto,
    partition: &Partition,
    build: impl FnOnce() -> (RunSpec, PlanCells),
) -> Vec<ShardStats> {
    reset_peak_rss();
    let (spec, cells) = build();
    let t0 = std::time::Instant::now();
    let (report, stats) = run_spec_on(&spec, proto, partition);
    let wall_s = t0.elapsed().as_secs_f64();
    let peak = peak_rss_mb();
    let mut row = cells.lead;
    row.extend([
        format!("{}", report.contacts),
        format!("{}", report.created()),
        f(report.delivery_rate()),
        format!("{}", report.expired),
    ]);
    row.extend(cells.mid);
    row.extend([f(wall_s), f(peak.unwrap_or(0.0))]);
    row.extend(cells.tail);
    tsv.row(&row);
    tsv.comment(&format!(
        "delivery = {}, wall = {} s, peak rss = {} MB",
        f(report.delivery_rate()),
        f(wall_s),
        f(peak.unwrap_or(0.0)),
    ));

    if max_rss_mb > 0 {
        let id = tsv.id();
        // Panic, don't exit: fig_all's per-plan catch_unwind records one
        // FAIL row, keeps running the remaining experiments, and still
        // exits non-zero (CI's check). No reading is a failure too — a
        // bound that cannot be checked must not pass.
        let peak = peak.unwrap_or_else(|| {
            panic!(
                "{id} FAILED: RAPID_SCALE_MAX_RSS_MB={max_rss_mb} is set but \
                 /proc/self/status gave no VmHWM reading [diag=rss-unreadable]"
            )
        });
        assert!(
            peak <= max_rss_mb as f64,
            "{id} FAILED: peak RSS {peak:.1} MB exceeds the \
             RAPID_SCALE_MAX_RSS_MB bound ({max_rss_mb} MB)"
        );
        eprintln!("{id}: peak RSS {peak:.1} MB within the {max_rss_mb} MB bound");
    }
    stats
}

/// The `scale` experiment: the sparse fleet streamed window by window
/// through the engine; reports throughput and peak memory, and enforces
/// `RAPID_SCALE_MAX_RSS_MB` when set.
pub fn run_scale() {
    scale(&ScaleLab::from_env(root_seed()), max_rss_mb_from_env());
}

fn scale(lab: &ScaleLab, max_rss_mb: u64) {
    let mut tsv = Tsv::new("scale");
    tsv.comment("Scale family: sparse fleet streamed through the engine (Random replication)");
    tsv.comment(&format!(
        "mode = streamed, nodes = {}, expected windows = {}, expected packets = {}, \
         horizon = {} s, seed = {}",
        lab.fleet.nodes,
        lab.fleet.contacts,
        lab.packets,
        lab.fleet.horizon.as_secs_f64(),
        lab.seed,
    ));
    tsv.header();

    measure_run(
        &mut tsv,
        max_rss_mb,
        Proto::Random,
        &env_partition(lab.fleet.nodes),
        || {
            let cells = PlanCells {
                lead: vec![
                    "streamed".into(),
                    "0".into(),
                    format!("{}", lab.fleet.nodes),
                ],
                mid: Vec::new(),
                tail: Vec::new(),
            };
            (lab.spec(0), cells)
        },
    );
}

/// The `scale_compressed` experiment: the scale family driven from a
/// compressed contact plan — one periodic generator atom per 200 windows,
/// expanding lazily to `RAPID_SCALE_WINDOWS` — instead of a per-window
/// stream. That the lazy expansion simulates the byte-identical scenario
/// of the same plan materialized up front is
/// `tests::compressed_mode_matches_its_materialized_expansion`'s subject;
/// CI bounds this plan's peak RSS. Plan-size columns record the
/// compression: `plan_kb` is the resident atom storage, `expanded_kb`
/// what the same windows cost as 48-byte structs.
pub fn run_scale_compressed() {
    scale_compressed(&ScaleLab::from_env(root_seed()), max_rss_mb_from_env());
}

fn scale_compressed(lab: &ScaleLab, max_rss_mb: u64) {
    let routes = lab.routes();

    let mut tsv = Tsv::new("scale_compressed");
    tsv.comment("Compressed scale family: periodic-atom plan expanded lazily through the engine");
    tsv.comment(&format!(
        "mode = compressed, nodes = {}, routes = {routes}, expected windows = {}, \
         expected packets = {}, horizon = {} s, seed = {}",
        lab.fleet.nodes,
        lab.fleet.contacts,
        lab.packets,
        lab.fleet.horizon.as_secs_f64(),
        lab.seed,
    ));
    tsv.header();

    measure_run(
        &mut tsv,
        max_rss_mb,
        Proto::Random,
        &env_partition(lab.fleet.nodes),
        || {
            let plan = lab.compiled_plan(routes, 0);
            let plan_kb = plan.in_memory_bytes() as f64 / 1024.0;
            let expanded_kb = plan.materialized_bytes() as f64 / 1024.0;
            let cells = PlanCells {
                lead: vec![
                    "compressed".into(),
                    "0".into(),
                    format!("{}", lab.fleet.nodes),
                ],
                mid: Vec::new(),
                tail: vec![
                    format!("{}", plan.atom_count()),
                    format!("{}", plan.window_count()),
                    f(plan_kb),
                    f(expanded_kb),
                    f(expanded_kb / plan_kb.max(f64::MIN_POSITIVE)),
                ],
            };
            (lab.spec_compressed(&plan, 0), cells)
        },
    );
}

/// The protocol the scale_sharded family drives: `RAPID_SCALE_PROTO` is
/// `random` (default, the PR 8 baseline) or `rapid` (in-band RAPID, the
/// paper's protocol on the sharded runtime). Anything else aborts — a
/// typo must not silently time the wrong protocol.
fn scale_proto() -> Proto {
    dtn_sim::from_env_or("RAPID_SCALE_PROTO", Proto::Random, |v| match v {
        "random" => Ok(Proto::Random),
        "rapid" => Ok(Proto::RapidAvg),
        _ => Err(format!(
            "RAPID_SCALE_PROTO must be `random` or `rapid`, got `{v}`"
        )),
    })
}

/// The `scale_sharded` experiment: the scale family on the regional
/// fleet (64 contiguous regions, 0.95 of the meetings inside one region,
/// only the gateway backbone crossing), partitioned into `RAPID_SHARDS`
/// per-shard event loops (default 1 = the serial engine). Aggregate
/// columns (1–7) are byte-identical at any shard count — CI diffs them
/// between `RAPID_SHARDS=1` and `=4` — while the shard-dependent
/// telemetry (shard count, static free-run horizon, wall, RSS) sits after
/// them. Per-shard timing lands in
/// `results/scale_sharded_shards.tsv`.
///
/// Each run goes through the runner's `run_spec_on` over the region-aligned
/// partition — serial engine at one shard, sharded runtime above, the
/// report byte-identical either way — and so through `run_with_recovery`:
/// the `RAPID_CKPT_*` knobs apply, and a killed `scale_sharded` process
/// restarted with the same environment resumes from its last good
/// snapshot instead of starting over (the CI kill-resume smoke drives
/// exactly this path).
pub fn run_scale_sharded() {
    scale_sharded(
        &ScaleLab::from_env(root_seed()),
        scale_proto(),
        dtn_sim::shards_from_env(),
        max_rss_mb_from_env(),
    );
}

fn scale_sharded(lab: &ScaleLab, proto: Proto, shards: usize, max_rss_mb: u64) {
    let rf = RegionalFleet {
        fleet: lab.fleet,
        regions: REGIONS,
        locality: LOCALITY,
    };
    let shards = dtn_sim::clamp_shards(shards, lab.fleet.nodes);
    let partition = rf.partition(shards);
    let routes = lab.routes();

    let mut tsv = Tsv::new("scale_sharded");
    tsv.comment(
        "Sharded scale family: regional fleet, per-shard event loops, conservative sync horizon",
    );
    tsv.comment(&format!(
        "shards = {shards}, proto = {}, regions = {}, locality = {}, nodes = {}, \
         routes = {routes}, expected windows = {}, expected packets = {}, \
         horizon = {} s, seed = {}",
        proto.label(),
        rf.regions,
        rf.locality,
        lab.fleet.nodes,
        lab.fleet.contacts,
        lab.packets,
        lab.fleet.horizon.as_secs_f64(),
        lab.seed,
    ));
    tsv.header();

    let mut shard_tsv = Tsv::new("scale_sharded_shards");
    shard_tsv.comment("Per-shard timing for the scale_sharded family");
    shard_tsv.row(registry::SCALE_SHARDED_SHARDS_COLUMNS);

    let stats = measure_run(&mut tsv, max_rss_mb, proto, &partition, || {
        let plan = Arc::new(rf.periodic_plan(routes, lab.seed, 0));
        // The static conservative horizon: shards free-run to the first
        // cross-shard window's start before any barrier can occur.
        let free_run = plan.first_cross_shard_start(&partition);
        let cells = PlanCells {
            lead: vec![
                "0".into(),
                format!("{}", lab.fleet.nodes),
                format!("{}", plan.window_count()),
            ],
            mid: vec![
                format!("{shards}"),
                free_run.map_or_else(|| "-".into(), |t| f(t.as_secs_f64())),
            ],
            tail: Vec::new(),
        };
        (lab.spec_regional(&rf, &plan, 0), cells)
    });
    for s in &stats {
        shard_tsv.row(&[
            "0".into(),
            format!("{}", s.shard),
            format!("{}", s.nodes),
            format!("{}", s.drives),
            format!("{}", s.creations),
            f(s.busy.as_secs_f64()),
            s.concurrency.label().into(),
        ]);
    }
    let busy: f64 = stats.iter().map(|s| s.busy.as_secs_f64()).sum();
    shard_tsv.comment(&format!(
        "mean busy per shard = {} s ({} shards)",
        f(busy / stats.len() as f64),
        stats.len(),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_spec;

    /// 2000 nodes, 5000 windows, 500 packets: every plan in well under a
    /// second.
    fn toy_lab() -> ScaleLab {
        ScaleLab {
            fleet: ScaleFleet {
                nodes: 2_000,
                contacts: 5_000,
                opportunity_bytes: 16 * 1024,
                contact_duration: TimeDelta::ZERO,
                horizon: Time::from_secs(1800),
                hubs: 16,
                hub_bias: 0.5,
            },
            packets: 500,
            buffer: 64 * 1024,
            deadline: TimeDelta::from_secs(60),
            ttl: TimeDelta::from_secs(600),
            seed: 11,
        }
    }

    #[test]
    fn small_scale_run_is_deterministic_and_bounded() {
        let lab = toy_lab();
        let a = run_spec(&lab.spec(0), Proto::Random);
        let b = run_spec(&lab.spec(0), Proto::Random);
        assert_eq!(a, b, "streamed scale runs replay bit-identically");
        assert!(a.created() > 300, "workload materialized: {}", a.created());
        assert!(a.contacts > 4000, "contacts driven: {}", a.contacts);

        // The streamed and materialized paths simulate the same scenario.
        let streamed = lab.spec(0);
        let materialized = RunSpec {
            contacts: ContactsSpec::shared(streamed.contacts.materialize()),
            packets: PacketsSpec::shared(streamed.packets.materialize()),
            ..streamed
        };
        let m = run_spec(&materialized, Proto::Random);
        assert_eq!(a, m, "materialized baseline must match the stream");
    }

    #[test]
    fn compressed_mode_matches_its_materialized_expansion() {
        let lab = toy_lab();
        let plan = lab.compiled_plan(lab.routes(), 0);
        assert!(
            plan.materialized_bytes() >= 10 * plan.in_memory_bytes() as u64,
            "periodic plan must compress >=10x: {} vs {}",
            plan.in_memory_bytes(),
            plan.materialized_bytes()
        );
        let lazy = run_spec(&lab.spec_compressed(&plan, 0), Proto::Random);
        let eager = run_spec(
            &RunSpec {
                contacts: ContactsSpec::shared(plan.materialize()),
                ..lab.spec(0)
            },
            Proto::Random,
        );
        assert_eq!(
            lazy, eager,
            "lazy expansion must replay the materialized plan"
        );
        assert!(
            lazy.contacts > 4_000,
            "plan drove {} contacts",
            lazy.contacts
        );
        assert!(lazy.created() > 300, "workload created {}", lazy.created());
    }

    #[test]
    fn regional_sharded_run_matches_serial_engine() {
        let lab = toy_lab();
        let rf = RegionalFleet {
            fleet: lab.fleet,
            regions: 8,
            locality: 0.9,
        };
        let plan = Arc::new(rf.periodic_plan(50, lab.seed, 0));
        let spec = lab.spec_regional(&rf, &plan, 0);
        let (serial, serial_stats) = run_spec_on(&spec, Proto::Random, &rf.partition(1));
        assert_eq!(serial_stats.len(), 1, "the serial engine is one shard");
        assert!(serial.contacts > 4_000, "plan drove {}", serial.contacts);
        assert!(
            serial.created() > 300,
            "workload created {}",
            serial.created()
        );
        for shards in [2, 4, 8] {
            let part = rf.partition(shards);
            let (sharded, stats) = run_spec_on(&spec, Proto::Random, &part);
            assert_eq!(serial, sharded, "{shards}-shard run must match the engine");
            assert_eq!(stats.len(), shards);
            assert_eq!(
                stats.iter().map(|s| s.nodes).sum::<usize>(),
                lab.fleet.nodes,
                "shard telemetry covers the node space"
            );
            assert!(
                stats
                    .iter()
                    .all(|s| s.concurrency == dtn_sim::ContactConcurrency::NodeDisjoint),
                "Random shards on the one tier there is"
            );
        }

        // The paper's own protocol on a smaller regional plan (debug-mode
        // RAPID recomputes its eviction oracle from scratch, so the fleet
        // is sized for test time): in-band RAPID leases real per-node
        // state to the shards and must also replay the serial engine
        // byte-for-byte.
        let lab = ScaleLab {
            fleet: ScaleFleet {
                nodes: 300,
                contacts: 2_500,
                opportunity_bytes: 4 * 1024,
                contact_duration: TimeDelta::ZERO,
                horizon: Time::from_secs(1800),
                hubs: 8,
                hub_bias: 0.5,
            },
            packets: 200,
            buffer: 16 * 1024,
            deadline: TimeDelta::from_secs(60),
            ttl: TimeDelta::from_secs(600),
            seed: 11,
        };
        let rf = RegionalFleet {
            fleet: lab.fleet,
            regions: 8,
            locality: 0.9,
        };
        let plan = Arc::new(rf.periodic_plan(30, lab.seed, 0));
        let spec = lab.spec_regional(&rf, &plan, 0);
        let (serial, _) = run_spec_on(&spec, Proto::RapidAvg, &rf.partition(1));
        assert!(serial.contacts > 2_000, "plan drove {}", serial.contacts);
        for shards in [2, 4] {
            let part = rf.partition(shards);
            let (sharded, stats) = run_spec_on(&spec, Proto::RapidAvg, &part);
            assert_eq!(serial, sharded, "{shards}-shard RAPID diverged");
            assert!(
                stats
                    .iter()
                    .all(|s| s.concurrency == dtn_sim::ContactConcurrency::NodeDisjoint),
                "in-band RAPID shards on the same tier"
            );
        }
    }

    #[test]
    fn measure_loop_drives_all_three_plans_and_enforces_the_rss_bound() {
        let lab = toy_lab();
        // Unbounded: every plan completes, and every row it emits passes
        // `Tsv::row`'s column-count assertion against the registry.
        scale(&lab, 0);
        scale_compressed(&lab, 0);
        scale_sharded(&lab, Proto::Random, 2, 0);

        // No test process fits in 1 MB, so the bound must fire.
        let panic = std::panic::catch_unwind(|| scale(&lab, 1)).expect_err("1 MB bound holds?");
        let msg = panic.downcast_ref::<String>().expect("formatted panic");
        assert!(
            msg.starts_with("scale FAILED: peak RSS")
                && msg.ends_with("exceeds the RAPID_SCALE_MAX_RSS_MB bound (1 MB)"),
            "{msg}"
        );
    }
}
