//! Synthetic-mobility experiment assembly (the §6.3 family, Table 4).
//!
//! 20 nodes, 100 KB buffers, 100 KB opportunities, 15-minute runs, 1 KB
//! packets, 20 s delivery deadline. Loads are packets per destination per
//! 50 s (each node receives `L` packets per 50 s from uniformly chosen
//! sources). The pairwise mean inter-meeting time (150 s) is calibrated so
//! delays land on the paper's 5–25 s scale; EXPERIMENTS.md records the
//! calibration.

use crate::proto::Proto;
use crate::runner::{run_spec, ContactsSpec, PacketsSpec, RunSpec};
use dtn_mobility::{PowerLaw, UniformExponential};
use dtn_sim::workload::pairwise_poisson;
use dtn_sim::{CompiledPlan, SimReport, Time, TimeDelta};
use dtn_stats::SeedStream;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Packet size (Table 4: 1 KB).
pub const PACKET_BYTES: u64 = 1024;

/// Which synthetic mobility model to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mobility {
    /// Uniform exponential inter-meeting times (§6.3.3).
    Exponential,
    /// Popularity-skewed power-law meetings (§6.3.1).
    PowerLaw,
}

/// The synthetic laboratory with Table 4 defaults.
#[derive(Debug, Clone)]
pub struct SynthLab {
    /// Number of nodes (Table 4: 20).
    pub nodes: usize,
    /// Buffer capacity, bytes (Table 4: 100 KB).
    pub buffer: u64,
    /// Opportunity size, bytes (Table 4: 100 KB).
    pub opportunity: u64,
    /// Run duration (Table 4: 15 min).
    pub duration: TimeDelta,
    /// Delivery deadline (Table 4: 20 s).
    pub deadline: TimeDelta,
    /// Mean pairwise inter-meeting time (calibration).
    pub mean_inter_meeting: TimeDelta,
    seeds: SeedStream,
    /// Compiled contact plans keyed by `(mobility, run)`, shared across
    /// every sweep point that replays the same mobility draw. A sweep over
    /// loads × protocols used to regenerate (and separately own) the same
    /// schedule at every point; now each `(mobility, run)` is generated
    /// once, compressed, and expanded per run through a cursor.
    plans: Arc<Mutex<PlanCache>>,
}

/// Compiled plans keyed by `(mobility kind, run)`.
type PlanCache = HashMap<(u8, u32), Arc<CompiledPlan>>;

impl SynthLab {
    /// Table 4 defaults.
    pub fn new(seed: u64) -> Self {
        Self {
            nodes: 20,
            buffer: 100 * 1024,
            opportunity: 100 * 1024,
            duration: TimeDelta::from_mins(15),
            deadline: TimeDelta::from_secs(20),
            mean_inter_meeting: TimeDelta::from_secs(150),
            seeds: SeedStream::new(seed).derive("synth-lab"),
            plans: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The compiled contact plan for `(mobility, run)`: generated and
    /// compressed once, then shared by every sweep point (loads ×
    /// protocols × buffer sizes) that replays the same mobility draw. The
    /// expansion is byte-identical to the schedule `generate` used to
    /// rebuild at each point, so figures are unchanged.
    fn compiled_contacts(&self, mobility: Mobility, run: u32) -> Arc<CompiledPlan> {
        let key = (matches!(mobility, Mobility::PowerLaw) as u8, run);
        if let Some(plan) = self.plans.lock().unwrap().get(&key) {
            return Arc::clone(plan);
        }
        let horizon = Time(self.duration.0);
        let mut mob_rng = self.seeds.rng_indexed(
            match mobility {
                Mobility::Exponential => "mob-exp",
                Mobility::PowerLaw => "mob-pl",
            },
            u64::from(run),
        );
        let schedule = match mobility {
            Mobility::Exponential => UniformExponential {
                nodes: self.nodes,
                mean_inter_meeting: self.mean_inter_meeting,
                opportunity_bytes: self.opportunity,
            }
            .generate(horizon, &mut mob_rng),
            Mobility::PowerLaw => PowerLaw {
                nodes: self.nodes,
                base_mean: self.mean_inter_meeting,
                opportunity_bytes: self.opportunity,
            }
            .generate(horizon, &mut mob_rng),
        };
        let plan = Arc::new(CompiledPlan::compress_schedule(&schedule));
        // Deterministic generation: a racing builder produced identical
        // atoms, so first insert wins and both callers share it.
        Arc::clone(self.plans.lock().unwrap().entry(key).or_insert(plan))
    }

    /// Builds one run at a per-destination load (packets per 50 s).
    pub fn spec(
        &self,
        mobility: Mobility,
        run: u32,
        load_per_dest_per_50s: f64,
        buffer_override: Option<u64>,
    ) -> RunSpec {
        assert!(load_per_dest_per_50s > 0.0);
        let horizon = Time(self.duration.0);
        let plan = self.compiled_contacts(mobility, run);
        let gap_secs = (self.nodes as f64 - 1.0) * 50.0 / load_per_dest_per_50s;
        let mut wl_rng = self.seeds.rng_indexed("workload", u64::from(run));
        let nodes: Vec<dtn_sim::NodeId> = (0..self.nodes as u32).map(dtn_sim::NodeId).collect();
        let workload = pairwise_poisson(
            &nodes,
            TimeDelta::from_secs_f64(gap_secs),
            PACKET_BYTES,
            horizon,
            &mut wl_rng,
        );
        RunSpec {
            contacts: ContactsSpec::compiled(plan),
            packets: PacketsSpec::shared(workload),
            nodes: self.nodes,
            buffer: buffer_override.unwrap_or(self.buffer),
            deadline: self.deadline,
            horizon,
            seed: self.seeds.seed() ^ u64::from(run),
            noise: None,
            measure_from: Time::ZERO,
            churn: Vec::new(),
            ttl: None,
        }
    }

    /// Runs `runs` independent repetitions of one configuration in
    /// parallel; run reports fold into a [`SynthAcc`] in run order as they
    /// complete — bounded memory, and an aggregate independent of the
    /// worker count.
    pub fn run_many_agg(
        &self,
        mobility: Mobility,
        runs: u32,
        load: f64,
        buffer_override: Option<u64>,
        proto: Proto,
    ) -> SynthAggregate {
        let mut acc = SynthAcc::new(runs as usize);
        crate::parallel_reduce(
            runs as usize,
            |r| {
                let spec = self.spec(mobility, r as u32, load, buffer_override);
                run_spec(&spec, proto)
            },
            |_, report| acc.push(&report),
        );
        acc.finish()
    }
}

/// Synthetic aggregate (seconds scale, unlike the trace minutes scale).
#[derive(Debug, Clone, Copy, Default)]
pub struct SynthAggregate {
    /// Mean of per-run average delay, seconds.
    pub avg_delay_s: f64,
    /// Mean of per-run max delay, seconds.
    pub max_delay_s: f64,
    /// Mean delivery rate.
    pub delivery_rate: f64,
    /// Mean within-deadline rate.
    pub within_deadline: f64,
}

/// Streaming accumulator behind [`SynthAggregate`]: each report weighted
/// by the fixed expected count.
#[derive(Debug, Clone, Copy)]
pub struct SynthAcc {
    n: f64,
    agg: SynthAggregate,
}

impl SynthAcc {
    /// An accumulator expecting `runs` reports.
    pub fn new(runs: usize) -> Self {
        Self {
            n: runs.max(1) as f64,
            agg: SynthAggregate::default(),
        }
    }

    /// Absorbs one run report.
    pub fn push(&mut self, r: &SimReport) {
        let n = self.n;
        self.agg.avg_delay_s += r.avg_delay_secs().unwrap_or(0.0) / n;
        self.agg.max_delay_s += r.max_delay_secs().unwrap_or(0.0) / n;
        self.agg.delivery_rate += r.delivery_rate() / n;
        self.agg.within_deadline += r.within_deadline_rate(None) / n;
    }

    /// The aggregate over everything pushed.
    pub fn finish(self) -> SynthAggregate {
        self.agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_scales_with_load() {
        let lab = SynthLab::new(5);
        let lo = lab.spec(Mobility::Exponential, 0, 5.0, None);
        let hi = lab.spec(Mobility::Exponential, 0, 40.0, None);
        let ratio = hi.packets.materialize().len() as f64 / lo.packets.materialize().len() as f64;
        assert!(ratio > 5.0 && ratio < 12.0, "ratio {ratio}");
        assert_eq!(lo.buffer, 100 * 1024);
        let small = lab.spec(Mobility::Exponential, 0, 5.0, Some(10 * 1024));
        assert_eq!(small.buffer, 10 * 1024);
    }

    #[test]
    fn sweep_points_share_one_compiled_plan() {
        let lab = SynthLab::new(5);
        let a = lab.spec(Mobility::Exponential, 0, 5.0, None);
        let b = lab.spec(Mobility::Exponential, 0, 40.0, Some(10 * 1024));
        let (ContactsSpec::Compiled(pa), ContactsSpec::Compiled(pb)) = (&a.contacts, &b.contacts)
        else {
            panic!("synth contacts are compiled plans");
        };
        assert!(Arc::ptr_eq(pa, pb), "same (mobility, run) → same plan");
        let c = lab.spec(Mobility::Exponential, 1, 5.0, None);
        let ContactsSpec::Compiled(pc) = &c.contacts else {
            panic!("compiled");
        };
        assert!(!Arc::ptr_eq(pa, pc), "different runs → different plans");
    }

    #[test]
    fn mobility_models_differ_but_are_deterministic() {
        let lab = SynthLab::new(5);
        let a = lab.spec(Mobility::PowerLaw, 0, 5.0, None);
        let b = lab.spec(Mobility::PowerLaw, 0, 5.0, None);
        assert_eq!(a.contacts.materialize(), b.contacts.materialize());
        let c = lab.spec(Mobility::Exponential, 0, 5.0, None);
        assert_ne!(a.contacts.materialize(), c.contacts.materialize());
    }
}
