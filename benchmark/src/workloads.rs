//! The four named workloads: what each one runs, which `RAPID_*` knobs it
//! declares, and how its scenario is rebuilt from the seed.
//!
//! A workload is a list of operations; one operation is one
//! `rapid_bench::runner::run_spec` call — the entry point the figure
//! binaries use — so the workloads survive refactors inside `dtn-sim`.
//! Building the list is the *set-up* the harness times separately from the
//! run: lab construction, plan compile, workload draw, spec assembly, and
//! one drain of each scenario's sources that yields the counts the run is
//! later checked against.

use dtn_mobility::{RegionalFleet, ScaleFleet};
use dtn_sim::{Time, TimeDelta};
use rapid_bench::runner::{ContactsSpec, PacketsSpec, RunSpec};
use rapid_bench::{Proto, TraceLab};

/// Packet size used by every workload (the harness-wide 1 KB).
const PACKET_BYTES: u64 = 1024;

/// The contact plans of `paper_trace` and `regional_rapid*` are *data*,
/// like the paper's DieselNet logs: one fixed fleet each. `--seed` draws
/// the packet workload over it (the paper's Fig. 3 averages such draws).
/// Seeding the plans too was tried first. On `paper_trace` it changes the
/// number of buses on the road, and with it the work per pass, by a
/// factor of two between seeds. On the regional shape RAPID's cost is the
/// meeting-row exchange, which follows who met whom: single traced passes
/// at six seeds took 2.38–3.23 s with the plan seeded and 2.69–2.94 s with
/// it fixed. No regression bound survives either. (`scale_stream` seeds both of its
/// generators: Random's cost does not depend on the plan's structure.)
const FLEET_SEED: u64 = 7;

/// Shape scale: the measured shapes, or toy shapes for tests and `smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Toy,
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperTrace,
    ScaleStream,
    RegionalRapid,
    RegionalRapidShards2,
}

/// One operation of a pass.
pub struct Op {
    /// Stable label: names the operation in digests and span files.
    pub label: String,
    pub spec: RunSpec,
    pub proto: Proto,
    /// Whether this operation's report feeds the `sim_*` metrics (the
    /// workload's protocol under test).
    pub primary: bool,
    /// Contact windows the sources yield inside the measured window; the
    /// report must have driven exactly these.
    pub expect_contacts: u64,
    /// Packet creations the sources yield; the report must hold exactly
    /// these.
    pub expect_packets: u64,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperTrace,
        Workload::ScaleStream,
        Workload::RegionalRapid,
        Workload::RegionalRapidShards2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTrace => "paper_trace",
            Workload::ScaleStream => "scale_stream",
            Workload::RegionalRapid => "regional_rapid",
            Workload::RegionalRapidShards2 => "regional_rapid_shards2",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line; `BENCHMARK.json` repeats it).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperTrace => {
                "Paper section 6.2 trace sweep (days 5,6 at load 5, day 6 at load 40, x RAPID,MaxProp): packet-dense, contact-sparse, so rapid_core selection and estimates dominate and the event engine idles"
            }
            Workload::ScaleStream => {
                "20k-node fleet, 800k streamed windows, 4000 packets, Random routing: contact-dense, packet-sparse, so dtn_sim and dtn_protocols::random do the work and rapid_core executes nothing"
            }
            Workload::RegionalRapid => {
                "400-node regional fleet, 80k windows, 500 packets, in-band RAPID with TTL and 16 KiB buffers on the serial engine: dense n^2 meeting rows and per-contact metadata exchange; the RSS scoreboard"
            }
            Workload::RegionalRapidShards2 => {
                "The regional_rapid scenario under RAPID_SHARDS=2: same layers through the shard director, so a serial-vs-sharded trade shows as one row moving against the other"
            }
        }
    }

    /// The `RAPID_*` knobs this workload sets; the harness removes every
    /// other inherited `RAPID_*` variable before running.
    pub fn env(self) -> &'static [(&'static str, &'static str)] {
        match self {
            Workload::PaperTrace => &[("RAPID_JOBS", "1")],
            Workload::ScaleStream | Workload::RegionalRapid => &[],
            Workload::RegionalRapidShards2 => &[("RAPID_SHARDS", "2")],
        }
    }

    /// Shards the run executes on (1 = the serial engine).
    pub fn shards(self) -> usize {
        match self {
            Workload::RegionalRapidShards2 => 2,
            _ => 1,
        }
    }

    /// Rebuilds the workload's operations from `seed` — the set-up the
    /// harness times at the start of every pass.
    pub fn build(self, seed: u64, size: Size) -> Vec<Op> {
        match self {
            Workload::PaperTrace => paper_trace(seed, size),
            Workload::ScaleStream => vec![scale_stream(seed, size)],
            Workload::RegionalRapid | Workload::RegionalRapidShards2 => {
                vec![regional_rapid(seed, size)]
            }
        }
    }
}

/// Drains fresh sources of `spec` once: `(windows starting inside the
/// measured window, packet creations)`. Part of set-up — it is how the
/// harness generates its inputs' ground truth without asking the engine.
fn source_counts(spec: &RunSpec) -> (u64, u64) {
    let mut contacts = spec.contacts.source();
    let mut measured = 0u64;
    while let Some(w) = contacts.next_window() {
        measured += u64::from(w.start >= spec.measure_from);
    }
    let mut packets = spec.packets.source();
    let mut created = 0u64;
    while packets.next_packet().is_some() {
        created += 1;
    }
    (measured, created)
}

fn op(label: String, spec: RunSpec, proto: Proto, primary: bool, counts: (u64, u64)) -> Op {
    Op {
        label,
        spec,
        proto,
        primary,
        expect_contacts: counts.0,
        expect_packets: counts.1,
    }
}

/// The paper's §6.2 DieselNet load sweep, cut to three `(day, load)`
/// points — two measured days (each with its five streamed warm-up days)
/// at a light load, one of them also at the saturating load (≈100k
/// packets) — under the paper's protocol and its strongest baseline.
fn paper_trace(seed: u64, size: Size) -> Vec<Op> {
    let points: &[(u32, f64)] = match size {
        Size::Full => &[(5, 5.0), (6, 5.0), (6, 40.0)],
        Size::Toy => &[(5, 0.2)],
    };
    let lab = TraceLab::load_sweep(FLEET_SEED);
    // `day_spec` packs the draw index into eight bits beside the day.
    let workload_run = (seed % 256) as u32;
    let mut ops = Vec::new();
    for &(day, load) in points {
        let spec = lab.day_spec(day, load, workload_run, None);
        let counts = source_counts(&spec);
        for (proto, tag) in [(Proto::RapidAvg, "rapid"), (Proto::MaxProp, "maxprop")] {
            ops.push(op(
                format!("day{day}/load{load}/{tag}"),
                spec.clone(),
                proto,
                proto == Proto::RapidAvg,
                counts,
            ));
        }
    }
    ops
}

fn scale_fleet(nodes: usize, contacts: u64, hubs: usize) -> ScaleFleet {
    ScaleFleet {
        nodes,
        contacts,
        opportunity_bytes: 2 * 1024,
        contact_duration: TimeDelta::ZERO,
        horizon: Time::from_secs(7200),
        hubs,
        hub_bias: 0.3,
    }
}

/// A streamed-generator run: 16 KiB buffers and a 15-minute TTL, so
/// eviction and expiry both execute.
fn streamed_spec(
    contacts: ContactsSpec,
    packets: PacketsSpec,
    nodes: usize,
    horizon: Time,
    seed: u64,
) -> RunSpec {
    RunSpec {
        contacts,
        packets,
        nodes,
        buffer: 16 * 1024,
        deadline: TimeDelta::from_secs(600),
        horizon,
        seed,
        noise: None,
        measure_from: Time::ZERO,
        churn: Vec::new(),
        ttl: Some(TimeDelta::from_secs(900)),
    }
}

/// The windows-heavy scale shape: a sparse 20k-node fleet streamed
/// through the engine under Random replication.
fn scale_stream(seed: u64, size: Size) -> Op {
    let (fleet, packets) = match size {
        Size::Full => (scale_fleet(20_000, 800_000, 64), 4_000),
        Size::Toy => (scale_fleet(2_000, 20_000, 16), 200),
    };
    let spec = streamed_spec(
        ContactsSpec::streaming(move || Box::new(fleet.contact_stream(seed, 0))),
        PacketsSpec::streaming(move || {
            Box::new(fleet.packet_stream(packets, PACKET_BYTES, seed, 0))
        }),
        fleet.nodes,
        fleet.horizon,
        seed,
    );
    let counts = source_counts(&spec);
    op("scale/random".into(), spec, Proto::Random, true, counts)
}

/// The 400-node regional shape under in-band RAPID. Eight regions over
/// 400 nodes put every even two-shard cut on a region boundary.
fn regional_rapid(seed: u64, size: Size) -> Op {
    let (fleet, packets) = match size {
        Size::Full => (scale_fleet(400, 80_000, 16), 500),
        Size::Toy => (scale_fleet(80, 4_000, 16), 60),
    };
    let rf = RegionalFleet {
        fleet,
        regions: 8,
        locality: 0.95,
    };
    let spec = streamed_spec(
        ContactsSpec::streaming(move || Box::new(rf.contact_stream(FLEET_SEED, 0))),
        PacketsSpec::streaming(move || Box::new(rf.packet_stream(packets, PACKET_BYTES, seed, 0))),
        fleet.nodes,
        fleet.horizon,
        seed,
    );
    let counts = source_counts(&spec);
    op("regional/rapid".into(), spec, Proto::RapidAvg, true, counts)
}
