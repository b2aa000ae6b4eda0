//! Trace-driven experiment assembly (the §6.2 family).
//!
//! Two calibrations of the synthetic DieselNet substrate:
//!
//! * **Deployment** (`TraceLab::deployment`) — the §5 configuration:
//!   default fleet (≈1.8 MB mean opportunities), the paper's default load
//!   of 4 packets/hour from each bus to each other on-road bus, 58 days,
//!   used by Table 3 and Fig. 3.
//! * **Load sweep** (`TraceLab::load_sweep`) — the §6.2 configuration used
//!   for Figs. 4–15: identical fleet dynamics but leaner opportunities
//!   (mean 128 KB), so the bandwidth-constrained regime the paper studies
//!   (Random under 50% delivery at the top load) is reached within the
//!   swept loads. Loads are interpreted as packets/hour *per destination*
//!   (each on-road bus receives `L` packets per hour from uniformly chosen
//!   on-road sources). Both calibration choices are recorded in
//!   EXPERIMENTS.md.
//!
//! The warm-up prefix plus measured day are *streamed* into each run
//! ([`DieselNet::stream_days`] behind an `Arc`'d fleet): the multi-day
//! contact plan never exists in memory, and concurrent day-runs share the
//! fleet with zero per-run clones. The emitted window sequence is exactly
//! the materialized concatenation the seed harness built, so figure TSVs
//! are byte-identical.

use crate::proto::Proto;
use crate::runner::{run_spec, ContactsSpec, PacketsSpec, RunSpec};
use dtn_mobility::{DayTrace, DieselNet, DieselNetConfig};
use dtn_sim::workload::pairwise_poisson;
use dtn_sim::{CompiledPlan, NodeId, NoiseModel, SimReport, Time, TimeDelta};
use dtn_stats::SeedStream;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Packet size used throughout the trace experiments (Table 4: 1 KB).
pub const PACKET_BYTES: u64 = 1024;

/// Warm-up days prepended to each measured day. The deployment learned
/// meeting averages continuously over 58 days (§4.1.2: "All values used by
/// rapid, including average meeting times, are learned during the
/// experiment"); each measured day therefore replays the preceding days'
/// *contacts* (no packets) first, so protocols start with realistic learned
/// state while each day remains a separate packet experiment (§6.1).
pub const WARMUP_DAYS: u32 = 5;

/// A configured trace laboratory.
pub struct TraceLab {
    fleet: Arc<DieselNet>,
    seeds: SeedStream,
    /// Delivery deadline (Table 4: 2.7 hours).
    pub deadline: TimeDelta,
    /// Day length.
    pub day_length: TimeDelta,
    /// Measured days compiled once and shared: `(plan, on-road buses)`
    /// per day. A load × protocol × workload-run sweep used to regenerate
    /// the same day's schedule at every point; now each day is generated
    /// once, compressed, and expanded per run through a cursor.
    days: Mutex<HashMap<u32, CompiledDay>>,
}

/// One measured day compiled once: `(plan, on-road buses)`.
type CompiledDay = (Arc<CompiledPlan>, Arc<[NodeId]>);

impl TraceLab {
    /// The §5 deployment calibration.
    pub fn deployment(seed: u64) -> Self {
        Self::with_config(DieselNetConfig::default(), seed)
    }

    /// The §6.2 load-sweep calibration: slightly leaner opportunities than
    /// the deployment (1 MB mean), so the swept loads cross from
    /// underutilized into the bandwidth-constrained regime the paper
    /// studies (Random under 50% delivery at the top load).
    pub fn load_sweep(seed: u64) -> Self {
        let cfg = DieselNetConfig {
            opportunity_mean_bytes: 1.0e6,
            ..DieselNetConfig::default()
        };
        Self::with_config(cfg, seed)
    }

    /// A lab over a custom fleet configuration.
    pub fn with_config(cfg: DieselNetConfig, seed: u64) -> Self {
        let day_length = cfg.day_length;
        Self {
            fleet: Arc::new(DieselNet::new(cfg, seed)),
            seeds: SeedStream::new(seed).derive("trace-lab"),
            deadline: TimeDelta::from_secs_f64(2.7 * 3600.0),
            day_length,
            days: Mutex::new(HashMap::new()),
        }
    }

    /// The fleet.
    pub fn fleet(&self) -> &DieselNet {
        &self.fleet
    }

    /// The compiled plan and on-road set for one measured day, generated
    /// once and shared across every sweep point that replays the day. The
    /// plan's expansion is byte-identical to the day's schedule.
    fn compiled_day(&self, day: u32) -> (Arc<CompiledPlan>, Arc<[NodeId]>) {
        if let Some(cached) = self.days.lock().unwrap().get(&day) {
            return cached.clone();
        }
        let trace: DayTrace = self.fleet.generate_day(day);
        let plan = Arc::new(CompiledPlan::compress_schedule(&trace.schedule));
        let on_road: Arc<[NodeId]> = trace.on_road.into();
        // Deterministic generation: a racing builder produced identical
        // data, so first insert wins and both callers share it.
        self.days
            .lock()
            .unwrap()
            .entry(day)
            .or_insert((plan, on_road))
            .clone()
    }

    /// Builds the run for one day at a per-destination hourly load.
    ///
    /// `workload_run` varies the workload draw without changing the
    /// contact trace — the Fig. 3 validation averages 30 such draws.
    pub fn day_spec(
        &self,
        day: u32,
        load_per_dest_per_hour: f64,
        workload_run: u32,
        noise: Option<NoiseModel>,
    ) -> RunSpec {
        assert!(load_per_dest_per_hour > 0.0);
        let (plan, on_road) = self.compiled_day(day);
        let n = on_road.len();
        assert!(n >= 2, "a day needs at least two buses");

        // Warm-up days stream ahead of the measured day: their contacts
        // teach the protocols meeting averages; no packets are generated in
        // the warm-up window. The factory re-opens the warm-up range per
        // run — one day's schedule in memory at a time, shared fleet, no
        // clones — and chains the measured day expanded from its shared
        // compiled plan rather than regenerating (or rematerializing) it.
        let warmup = day.min(WARMUP_DAYS);
        let measure_offset = TimeDelta(self.day_length.0 * u64::from(warmup));
        let stream_fleet = Arc::clone(&self.fleet);
        let warmup_days = (day - warmup)..day;
        let measured_plan = Arc::clone(&plan);
        let contacts = ContactsSpec::streaming(move || {
            let measured_shifted = measured_plan
                .stream()
                .map(move |w| w.shifted(measure_offset));
            Box::new(
                DieselNet::stream_days(Arc::clone(&stream_fleet), warmup_days.clone())
                    .chain(measured_shifted),
            )
        });

        // Load L = packets per hour from each bus to each destination
        // (§5.1: "4 packets per hour generated by each bus for every other
        // bus on the road" — 1,520/hour at 20 buses), i.e. a per-pair mean
        // gap of 3600/L seconds.
        let gap_secs = 3600.0 / load_per_dest_per_hour;
        let horizon = Time(self.day_length.0 * (u64::from(warmup) + 1));
        let mut rng = self
            .seeds
            .rng_indexed("workload", u64::from(day) << 8 | u64::from(workload_run));
        let base = pairwise_poisson(
            &on_road,
            TimeDelta::from_secs_f64(gap_secs),
            PACKET_BYTES,
            Time(self.day_length.0),
            &mut rng,
        );
        // Shift the workload into the measured window.
        let workload = dtn_sim::workload::Workload::new(
            base.specs()
                .iter()
                .map(|s| dtn_sim::workload::PacketSpec {
                    time: s.time + measure_offset,
                    ..*s
                })
                .collect(),
        );
        RunSpec {
            contacts,
            packets: PacketsSpec::shared(workload),
            nodes: self.fleet.config().total_buses,
            buffer: 40 * 1024 * 1024 * 1024, // 40 GB per bus (§5)
            deadline: self.deadline,
            horizon,
            seed: self.seeds.seed() ^ (u64::from(day) << 32) ^ u64::from(workload_run),
            noise,
            measure_from: Time(measure_offset.0),
            churn: Vec::new(),
            ttl: None,
        }
    }

    /// Runs `days` measured days (each with its warm-up prefix) of one
    /// protocol at one load in parallel, folding the day reports into a
    /// [`TraceAcc`] in day order as they complete — bounded memory, and an
    /// aggregate independent of the worker count. Measured days start at
    /// [`WARMUP_DAYS`] so every one has a full warm-up history.
    pub fn run_days_agg(
        &self,
        days: u32,
        load_per_dest_per_hour: f64,
        proto: Proto,
        noise: Option<NoiseModel>,
    ) -> TraceAggregate {
        let mut acc = TraceAcc::new(days as usize);
        crate::parallel_reduce(
            days as usize,
            |d| {
                let spec = self.day_spec(WARMUP_DAYS + d as u32, load_per_dest_per_hour, 0, noise);
                run_spec(&spec, proto)
            },
            |_, report| acc.push(&report),
        );
        acc.finish()
    }
}

/// Aggregates per-day reports into the metrics the figures plot.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceAggregate {
    /// Mean over days of per-day average delay, minutes.
    pub avg_delay_min: f64,
    /// Mean over days of per-day max delay, minutes.
    pub max_delay_min: f64,
    /// Mean delivery rate.
    pub delivery_rate: f64,
    /// Mean within-deadline rate.
    pub within_deadline: f64,
    /// Mean average delay including undelivered, minutes.
    pub avg_delay_with_undelivered_min: f64,
    /// Mean channel utilization.
    pub utilization: f64,
    /// Mean metadata / bandwidth.
    pub metadata_over_bandwidth: f64,
    /// Mean metadata / data.
    pub metadata_over_data: f64,
}

/// Streaming accumulator behind [`TraceAggregate`]: absorbs one day report
/// at a time, each weighted by the fixed expected count.
#[derive(Debug, Clone, Copy)]
pub struct TraceAcc {
    n: f64,
    agg: TraceAggregate,
}

impl TraceAcc {
    /// An accumulator expecting `runs` reports.
    pub fn new(runs: usize) -> Self {
        Self {
            n: runs.max(1) as f64,
            agg: TraceAggregate::default(),
        }
    }

    /// Absorbs one day report.
    pub fn push(&mut self, r: &SimReport) {
        let n = self.n;
        let agg = &mut self.agg;
        agg.avg_delay_min += r.avg_delay_secs().unwrap_or(0.0) / 60.0 / n;
        agg.max_delay_min += r.max_delay_secs().unwrap_or(0.0) / 60.0 / n;
        agg.delivery_rate += r.delivery_rate() / n;
        agg.within_deadline += r.within_deadline_rate(None) / n;
        agg.avg_delay_with_undelivered_min +=
            r.avg_delay_with_undelivered_secs().unwrap_or(0.0) / 60.0 / n;
        agg.utilization += r.channel_utilization() / n;
        agg.metadata_over_bandwidth += r.metadata_over_bandwidth() / n;
        agg.metadata_over_data += r.metadata_over_data() / n;
    }

    /// The aggregate over everything pushed.
    pub fn finish(self) -> TraceAggregate {
        self.agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_spec_is_deterministic_and_scaled() {
        let lab = TraceLab::load_sweep(3);
        let a = lab.day_spec(0, 10.0, 0, None);
        let b = lab.day_spec(0, 10.0, 0, None);
        assert_eq!(a.packets.materialize(), b.packets.materialize());
        assert_eq!(a.contacts.materialize(), b.contacts.materialize());
        // Different workload draws differ; schedule unchanged.
        let c = lab.day_spec(0, 10.0, 1, None);
        assert_ne!(a.packets.materialize(), c.packets.materialize());
        assert_eq!(a.contacts.materialize(), c.contacts.materialize());
        // Load scales packet count roughly linearly.
        let lo = lab.day_spec(0, 2.0, 0, None).packets.materialize().len() as f64;
        let hi = lab.day_spec(0, 20.0, 0, None).packets.materialize().len() as f64;
        assert!(hi / lo > 6.0 && hi / lo < 14.0, "ratio {}", hi / lo);
    }

    #[test]
    fn day_spec_streams_warmup_prefix_plus_measured_day() {
        let lab = TraceLab::load_sweep(3);
        let day = WARMUP_DAYS + 1;
        let spec = lab.day_spec(day, 4.0, 0, None);
        let schedule = spec.contacts.materialize();
        // The materialized counterpart the seed harness built by hand.
        let mut expected = Vec::new();
        for (k, past) in ((day - WARMUP_DAYS)..=day).enumerate() {
            let offset = TimeDelta(lab.day_length.0 * k as u64);
            for w in lab.fleet().generate_day(past).schedule.windows() {
                expected.push(w.shifted(offset));
            }
        }
        assert_eq!(schedule.windows(), expected);
        assert!(schedule.end_time() <= spec.horizon);
        assert_eq!(Time(spec.measure_from.0).0, lab.day_length.0 * 5);
    }

    #[test]
    fn sweep_points_share_one_compiled_day() {
        let lab = TraceLab::load_sweep(3);
        let (pa, _) = lab.compiled_day(2);
        let _ = lab.day_spec(2, 4.0, 0, None);
        let _ = lab.day_spec(2, 20.0, 1, None);
        let (pb, on_road) = lab.compiled_day(2);
        assert!(Arc::ptr_eq(&pa, &pb), "one plan per day");
        assert_eq!(lab.days.lock().unwrap().len(), 1);
        assert!(on_road.len() >= 2);
    }

    #[test]
    fn aggregate_averages_across_days() {
        let lab = TraceLab::load_sweep(3);
        let agg = lab.run_days_agg(2, 4.0, Proto::Random, None);
        assert!(agg.delivery_rate > 0.0 && agg.delivery_rate <= 1.0);
        assert!(agg.avg_delay_min > 0.0);
    }
}
