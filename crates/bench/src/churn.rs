//! Windowed-contact and node-churn experiment family (beyond the paper).
//!
//! The paper models transfer opportunities as instantaneous lumps and keeps
//! every node up all day. This family stretches both assumptions at once on
//! the §6.3 synthetic laboratory:
//!
//! * **Window duration sweep** — each meeting's opportunity is spread over a
//!   contact window of fixed length at rate `opportunity / duration`
//!   (duration 0 = the paper's lump). Total offered capacity is held
//!   constant up to day-end truncation (windows are clamped at the
//!   horizon), so the sweep isolates the *shape* of the opportunity: RAPID's
//!   delay estimates assume lump opportunities, and its utility ordering
//!   degrades as windows stretch while flooding-style protocols only pay
//!   the window-close delay.
//! * **Node churn sweep** — each node alternates exponentially-distributed
//!   up/down periods. Downtime suppresses new windows and interrupts open
//!   ones mid-accrual (the capacity accrued before the interruption is all
//!   that transfers), so churn interacts with duration: long windows lose
//!   more capacity to interruptions.
//!
//! Runs also set a packet TTL so the engine's `PacketExpired` path is
//! exercised end-to-end; expired packets are reported per run.
//! Calibration notes live in EXPERIMENTS.md.

use crate::proto::Proto;
use crate::runner::{run_spec, ContactsSpec, PacketsSpec, RunSpec};
use crate::synth::PACKET_BYTES;
use dtn_mobility::UniformExponential;
use dtn_sim::workload::pairwise_poisson;
use dtn_sim::{NodeEvent, NodeId, SimReport, Time, TimeDelta};
use dtn_stats::sample::Exponential;
use dtn_stats::SeedStream;
use rand::Rng;

/// The churn laboratory: the §6.3 synthetic defaults (Table 4) plus the
/// windowed-contact and availability knobs.
#[derive(Debug, Clone)]
pub struct ChurnLab {
    /// Number of nodes (Table 4: 20).
    pub nodes: usize,
    /// Buffer capacity, bytes (Table 4: 100 KB).
    pub buffer: u64,
    /// Per-meeting opportunity, bytes (Table 4: 100 KB) — held constant
    /// across window durations.
    pub opportunity: u64,
    /// Run duration (Table 4: 15 min).
    pub duration: TimeDelta,
    /// Delivery deadline (Table 4: 20 s).
    pub deadline: TimeDelta,
    /// Mean pairwise inter-meeting time (EXPERIMENTS.md calibration).
    pub mean_inter_meeting: TimeDelta,
    /// Mean length of one up+down availability cycle per node.
    pub churn_cycle: TimeDelta,
    /// Packet TTL (exercises engine-level expiry; `None` disables).
    pub ttl: Option<TimeDelta>,
    seeds: SeedStream,
}

impl ChurnLab {
    /// Table 4 defaults with a 4-minute churn cycle and a 60 s TTL (three
    /// deadlines: late packets die instead of clogging buffers).
    pub fn new(seed: u64) -> Self {
        Self {
            nodes: 20,
            buffer: 100 * 1024,
            opportunity: 100 * 1024,
            duration: TimeDelta::from_mins(15),
            deadline: TimeDelta::from_secs(20),
            mean_inter_meeting: TimeDelta::from_secs(150),
            churn_cycle: TimeDelta::from_mins(4),
            ttl: Some(TimeDelta::from_secs(60)),
            seeds: SeedStream::new(seed).derive("churn-lab"),
        }
    }

    /// Draws one node's availability transitions: alternating up/down
    /// periods with means `cycle·(1−f)` and `cycle·f`. `f == 0` yields no
    /// events (always up).
    fn node_churn<R: Rng + ?Sized>(
        &self,
        node: NodeId,
        down_fraction: f64,
        horizon: Time,
        rng: &mut R,
        out: &mut Vec<NodeEvent>,
    ) {
        if down_fraction <= 0.0 {
            return;
        }
        assert!(down_fraction < 1.0, "a node must sometimes be up");
        let up_mean = self.churn_cycle.as_secs_f64() * (1.0 - down_fraction);
        let down_mean = self.churn_cycle.as_secs_f64() * down_fraction;
        let up_gap = Exponential::with_mean(up_mean);
        let down_gap = Exponential::with_mean(down_mean);
        let mut t = up_gap.sample(rng);
        let mut up = true;
        while Time::from_secs_f64(t) < horizon {
            out.push(NodeEvent {
                time: Time::from_secs_f64(t),
                node,
                up: !up,
            });
            up = !up;
            t += if up {
                up_gap.sample(rng)
            } else {
                down_gap.sample(rng)
            };
        }
    }

    /// Builds one run: windows of length `window` (0 = instantaneous), a
    /// per-node downtime fraction, and the lab's load model (packets per
    /// destination per 50 s, as in [`crate::synth::SynthLab`]).
    pub fn spec(
        &self,
        run: u32,
        load_per_dest_per_50s: f64,
        window: TimeDelta,
        down_fraction: f64,
    ) -> RunSpec {
        assert!(load_per_dest_per_50s > 0.0);
        let horizon = Time(self.duration.0);
        let mut mob_rng = self.seeds.rng_indexed("mob", u64::from(run));
        let schedule = UniformExponential {
            nodes: self.nodes,
            mean_inter_meeting: self.mean_inter_meeting,
            opportunity_bytes: self.opportunity,
        }
        .generate_windows(horizon, window, &mut mob_rng);

        let gap_secs = (self.nodes as f64 - 1.0) * 50.0 / load_per_dest_per_50s;
        let mut wl_rng = self.seeds.rng_indexed("workload", u64::from(run));
        let nodes: Vec<NodeId> = (0..self.nodes as u32).map(NodeId).collect();
        let workload = pairwise_poisson(
            &nodes,
            TimeDelta::from_secs_f64(gap_secs),
            PACKET_BYTES,
            horizon,
            &mut wl_rng,
        );

        let mut churn_rng = self.seeds.rng_indexed("churn", u64::from(run));
        let mut churn = Vec::new();
        for &node in &nodes {
            self.node_churn(node, down_fraction, horizon, &mut churn_rng, &mut churn);
        }

        RunSpec {
            contacts: ContactsSpec::shared(schedule),
            packets: PacketsSpec::shared(workload),
            nodes: self.nodes,
            buffer: self.buffer,
            deadline: self.deadline,
            horizon,
            seed: self.seeds.seed() ^ u64::from(run),
            noise: None,
            measure_from: Time::ZERO,
            churn,
            ttl: self.ttl,
        }
    }

    /// Runs `runs` independent repetitions of one configuration in
    /// parallel; reports fold into a [`ChurnAcc`] in run order — bounded
    /// memory, and an aggregate independent of the worker count.
    pub fn run_many_agg(
        &self,
        runs: u32,
        load: f64,
        window: TimeDelta,
        down_fraction: f64,
        proto: Proto,
    ) -> ChurnAggregate {
        let mut acc = ChurnAcc::new(runs as usize);
        crate::parallel_reduce(
            runs as usize,
            |r| {
                let spec = self.spec(r as u32, load, window, down_fraction);
                run_spec(&spec, proto)
            },
            |_, report| acc.push(&report),
        );
        acc.finish()
    }
}

/// Aggregate for the churn family: the synthetic headline metrics plus the
/// expiry and interruption counters the new event kinds produce.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChurnAggregate {
    /// Mean of per-run average delay, seconds.
    pub avg_delay_s: f64,
    /// Mean delivery rate.
    pub delivery_rate: f64,
    /// Mean within-deadline rate.
    pub within_deadline: f64,
    /// Mean fraction of created packets whose TTL expired undelivered.
    pub expired_rate: f64,
    /// Mean count of windows suppressed by downtime per run.
    pub suppressed_contacts: f64,
}

/// Streaming accumulator behind [`ChurnAggregate`]: each report weighted
/// by the fixed expected count.
#[derive(Debug, Clone, Copy)]
pub struct ChurnAcc {
    n: f64,
    agg: ChurnAggregate,
    delay_sum: f64,
    delay_runs: u32,
}

impl ChurnAcc {
    /// An accumulator expecting `runs` reports.
    pub fn new(runs: usize) -> Self {
        Self {
            n: runs.max(1) as f64,
            agg: ChurnAggregate::default(),
            delay_sum: 0.0,
            delay_runs: 0,
        }
    }

    /// Absorbs one run report.
    pub fn push(&mut self, r: &SimReport) {
        let n = self.n;
        if let Some(d) = r.avg_delay_secs() {
            self.delay_sum += d;
            self.delay_runs += 1;
        }
        self.agg.delivery_rate += r.delivery_rate() / n;
        self.agg.within_deadline += r.within_deadline_rate(None) / n;
        self.agg.expired_rate += r.expired as f64 / r.created().max(1) as f64 / n;
        self.agg.suppressed_contacts += r.contacts_suppressed as f64 / n;
    }

    /// The aggregate over everything pushed. The delay mean covers only
    /// runs that delivered something — folding zero-delivery runs in as
    /// 0 s would make the hardest configurations look fastest.
    pub fn finish(self) -> ChurnAggregate {
        let mut agg = self.agg;
        agg.avg_delay_s = if self.delay_runs > 0 {
            self.delay_sum / f64::from(self.delay_runs)
        } else {
            f64::NAN
        };
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_is_deterministic() {
        let lab = ChurnLab::new(9);
        let a = lab.spec(0, 20.0, TimeDelta::from_secs(60), 0.25);
        let b = lab.spec(0, 20.0, TimeDelta::from_secs(60), 0.25);
        assert_eq!(a.contacts.materialize(), b.contacts.materialize());
        assert_eq!(a.packets.materialize(), b.packets.materialize());
        assert_eq!(a.churn, b.churn);
        assert!(!a.churn.is_empty());
    }

    #[test]
    fn zero_churn_and_zero_window_is_the_plain_lab() {
        let lab = ChurnLab::new(9);
        let spec = lab.spec(0, 20.0, TimeDelta::ZERO, 0.0);
        assert!(spec.churn.is_empty());
        assert!(spec
            .contacts
            .materialize()
            .windows()
            .iter()
            .all(|w| w.is_instantaneous()));
    }

    #[test]
    fn window_preserves_offered_capacity_up_to_truncation() {
        let lab = ChurnLab::new(9);
        let lump = lab
            .spec(0, 20.0, TimeDelta::ZERO, 0.0)
            .contacts
            .materialize();
        let spec = lab.spec(0, 20.0, TimeDelta::from_secs(120), 0.0);
        let windowed = spec.contacts.materialize();
        assert_eq!(lump.len(), windowed.len());
        // No window outlives the run.
        assert!(windowed.windows().iter().all(|w| w.end <= spec.horizon));
        // Capacity matches up to day-end truncation: windows starting in
        // the last 120 s of the 900 s run lose their tail, bounding the
        // expected loss well under 10%.
        let a = lump.offered_bytes() as f64;
        let b = windowed.offered_bytes() as f64;
        assert!(b <= a, "windowing must not create capacity: {a} vs {b}");
        assert!(b > 0.85 * a, "truncation lost too much: {a} vs {b}");
    }

    #[test]
    fn downtime_share_tracks_down_fraction() {
        let lab = ChurnLab::new(9);
        // Integrates each node's down intervals over the horizon.
        let downtime = |f: f64| {
            let spec = lab.spec(0, 20.0, TimeDelta::ZERO, f);
            let horizon = spec.horizon;
            let mut total = 0.0;
            for node in 0..lab.nodes as u32 {
                let mut down_since: Option<dtn_sim::Time> = None;
                for ev in spec.churn.iter().filter(|e| e.node == NodeId(node)) {
                    match (ev.up, down_since) {
                        (false, None) => down_since = Some(ev.time),
                        (true, Some(t)) => {
                            total += ev.time.since(t).as_secs_f64();
                            down_since = None;
                        }
                        _ => {}
                    }
                }
                if let Some(t) = down_since {
                    total += horizon.since(t).as_secs_f64();
                }
            }
            total / (lab.nodes as f64 * horizon.as_secs_f64())
        };
        let light = downtime(0.1);
        let heavy = downtime(0.45);
        assert!(light > 0.02 && light < 0.25, "light share {light}");
        assert!(heavy > 2.0 * light, "heavy {heavy} vs light {light}");
    }

    #[test]
    fn churn_run_reports_new_counters() {
        let lab = ChurnLab::new(9);
        let agg = lab.run_many_agg(2, 20.0, TimeDelta::from_secs(60), 0.3, Proto::Random);
        assert!(agg.delivery_rate > 0.0 && agg.delivery_rate <= 1.0);
        assert!(agg.suppressed_contacts > 0.0, "churn must suppress windows");
        assert!(agg.expired_rate > 0.0, "a 60 s TTL must expire something");
    }
}
