//! The benchmark's metric names, units, directions and bounds — the table
//! `BENCHMARK.json` publishes and `compare` judges by. A unit test keeps
//! the two in step.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
    /// `host` time/memory of the simulator, or `simulated` outcome of the
    /// modelled network — never mixed in one number.
    pub domain: &'static str,
}

/// Every end-to-end metric, reported per workload with tracing off.
///
/// `failed_frac` is not in this table: the result line carries it as
/// `failed` / `attempted`, because a bounded metric is judged as a share
/// of the parent's median and this one's healthy value is 0.
///
/// Every bound is 25%, the widest the contract allows, for two measured
/// reasons (README, "Baseline"). Host times on the shared 2-thread box
/// this was built on swing with the neighbours: ten consecutive runs of
/// one workload spread 4–16% between quartiles, and the whole machine
/// shifts by up to 40% between one quarter-hour and the next, so a
/// tighter gate would reject unchanged code. And acceptance varies the
/// seed: the simulated metrics (exact for a fixed seed, guarded by the
/// digests) and `scale_stream`'s peak RSS move 6–21% with the scenario
/// draw. Finer claims are for `compare` over interleaved result sets.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        domain: "host",
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        domain: "host",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        domain: "host",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        domain: "host",
    },
    EndToEnd {
        name: "sim_delivery_rate",
        unit: "fraction",
        better: Better::Higher,
        bound: 0.25,
        domain: "simulated",
    },
    EndToEnd {
        name: "sim_avg_delay_s",
        unit: "sim_s",
        better: Better::Lower,
        bound: 0.25,
        domain: "simulated",
    },
];

/// A per-layer metric from the traced run: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// Every per-layer metric, in output order. Layer names are module names.
/// A value of 0 means the workload does not exercise that layer (no
/// shards on a serial run, no MaxProp on the scale shapes) or that the
/// extra pass behind the metric belongs to another workload (see the
/// README's interaction table).
pub const PER_LAYER: &[PerLayer] = &[
    ("source.contacts.calls", "count", Lower),
    ("source.contacts.busy_s", "s", Lower),
    ("source.packets.calls", "count", Lower),
    ("source.packets.busy_s", "s", Lower),
    ("routing.on_contact.calls", "count", Lower),
    ("routing.on_contact.busy_s", "s", Lower),
    ("routing.make_room.calls", "count", Lower),
    ("routing.make_room.busy_s", "s", Lower),
    ("routing.on_packet_created.calls", "count", Lower),
    ("routing.on_packet_created.busy_s", "s", Lower),
    ("routing.lifecycle.calls", "count", Lower),
    ("routing.lifecycle.busy_s", "s", Lower),
    ("routing.ns_per_contact", "ns", Lower),
    ("routing.rapid.busy_s", "s", Lower),
    ("routing.maxprop.busy_s", "s", Lower),
    ("routing.replications", "count", Lower),
    ("engine.self_s", "s", Lower),
    ("engine.ns_per_contact", "ns", Lower),
    ("shard.busy_s.max", "s", Lower),
    ("shard.busy_s.sum", "s", Lower),
    ("shard.director_s", "s", Lower),
    ("shard.efficiency", "fraction", Higher),
    ("shard.node_disjoint", "count", Higher),
    ("core.kernel.ns_per_row", "ns", Lower),
    ("core.kernel.scalar_ns_per_row", "ns", Lower),
    ("core.kernel.scalar_slowdown_frac", "fraction", Higher),
    ("core.meetings.hhop_us.n40", "us", Lower),
    ("core.meetings.hhop_us.n400", "us", Lower),
    ("core.meetings.merge_ns_per_row.n400", "ns", Lower),
    ("core.meetings.row_bytes.n400", "B", Lower),
    ("core.control.metadata_frac", "fraction", Lower),
    ("sim.expired", "count", Lower),
    ("sim.event.ns_per_op", "ns", Lower),
    ("sim.buffer.insert_ns", "ns", Lower),
    ("sim.buffer.bytes_ahead_ns", "ns", Lower),
    ("sim.buffer.remove_ns", "ns", Lower),
    ("sim.plan.compress_ns_per_window", "ns", Lower),
    ("sim.plan.stream_ns_per_window", "ns", Lower),
    ("sim.plan.bytes_per_window", "B", Lower),
    ("trace.rpln1.encode_mb_s", "MB/s", Higher),
    ("trace.rpln1.decode_mb_s", "MB/s", Higher),
    ("mobility.scale.ns_per_window", "ns", Lower),
    ("mobility.dieselnet.day_ms", "ms", Lower),
    ("ckpt.saves", "count", Lower),
    ("ckpt.snapshot_bytes", "B", Lower),
    ("ckpt.encode_ms", "ms", Lower),
    ("ckpt.decode_ms", "ms", Lower),
    ("ckpt.overhead_frac", "fraction", Lower),
    ("runner.jobs2.speedup", "x", Higher),
    ("par.intra2.speedup", "x", Higher),
    ("trace.overhead_frac", "fraction", Lower),
];
