//! Synthetic DieselNet: the substitute for the paper's vehicular testbed.
//!
//! The real evaluation replays 58 days of traces from 40 buses around
//! Amherst, MA (§5). Those traces are not available offline, so this module
//! generates a synthetic fleet with the structural properties the evaluation
//! depends on, calibrated to the Table 3 daily aggregates:
//!
//! * 40 buses total, of which "a subset is on the road each day"
//!   (≈19 scheduled per day), operating a 19-hour service day (Table 4).
//! * Buses run on a ring of overlapping routes. Same-route buses meet
//!   often, adjacent-route buses occasionally, distant-route buses almost
//!   never — so some pairs never meet directly, which is why §4.1.2
//!   estimates meeting times transitively through up to `h = 3` hops.
//! * ≈147.5 meetings per day, with heavy-tailed (log-normal) per-meeting
//!   transfer opportunities: "The available bandwidth varies significantly
//!   across transfer opportunities in our bus traces" (§6.2.2) — this is
//!   what creates the bottleneck links of Fig. 9.
//!
//! Substitution note (also in EXPERIMENTS.md, "Deviations from the paper"):
//! synthetic contacts keep the *shape* of the evaluation — intermittent
//! short-lived meetings, highly variable link capacity, day-scoped packet
//! lifetimes — not the authors' absolute numbers.

use crate::exponential::window;
use dtn_sim::{ContactWindow, NodeId, Schedule, Time, TimeDelta};
use dtn_stats::rng::SeedStream;
use dtn_stats::sample::{poisson_process, Exponential, LogNormal, Poisson};
use dtn_trace::{ContactRecord, Record, Trace};
use rand::seq::SliceRandom;
use std::sync::Arc;

/// Fleet and calibration parameters for the synthetic DieselNet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DieselNetConfig {
    /// Fleet size (paper: 40 buses).
    pub total_buses: usize,
    /// Number of routes arranged in a ring.
    pub routes: usize,
    /// Mean number of buses scheduled per day (paper: 19).
    pub avg_on_road: f64,
    /// Service-day length (Table 4: 19 hours).
    pub day_length: TimeDelta,
    /// Meetings per hour for a pair of buses on the same route.
    pub same_route_rate_per_hour: f64,
    /// Meetings per hour for buses on ring-adjacent routes.
    pub adjacent_route_rate_per_hour: f64,
    /// Meetings per hour for distant routes (≈ never: forces multi-hop).
    pub far_route_rate_per_hour: f64,
    /// Mean transfer-opportunity size per meeting, bytes.
    pub opportunity_mean_bytes: f64,
    /// Log-normal sigma of the opportunity size (link-capacity variance).
    pub opportunity_sigma: f64,
    /// Mean contact-window duration (exponentially distributed per
    /// meeting). `TimeDelta::ZERO` — the default, and the paper's model —
    /// emits instantaneous meetings and draws no extra randomness, so
    /// default fleets are bit-identical to the pre-window generator.
    pub mean_contact_duration: TimeDelta,
}

impl Default for DieselNetConfig {
    /// Calibrated so a day averages ≈147 meetings among ≈19 buses and
    /// ≈265 MB of offered capacity per direction (Table 3 scale).
    fn default() -> Self {
        Self {
            total_buses: 40,
            routes: 10,
            avg_on_road: 19.0,
            day_length: TimeDelta::from_hours(19),
            same_route_rate_per_hour: 0.22,
            adjacent_route_rate_per_hour: 0.07,
            // All routes cross the town centre, so even distant-route buses
            // occasionally meet; rare enough that transitive estimation
            // (§4.1.2) still matters.
            far_route_rate_per_hour: 0.025,
            opportunity_mean_bytes: 1.8e6,
            opportunity_sigma: 1.1,
            mean_contact_duration: TimeDelta::ZERO,
        }
    }
}

/// One generated service day.
#[derive(Debug, Clone, PartialEq)]
pub struct DayTrace {
    /// Day index.
    pub day: u32,
    /// Buses scheduled (on the road) this day, ascending.
    pub on_road: Vec<NodeId>,
    /// The day's meeting schedule.
    pub schedule: Schedule,
}

/// The synthetic fleet: route assignments are fixed across days (a bus
/// serves its route), while the scheduled subset rotates daily.
#[derive(Debug, Clone)]
pub struct DieselNet {
    cfg: DieselNetConfig,
    route_of: Vec<usize>,
    seeds: SeedStream,
}

impl DieselNet {
    /// Builds a fleet with deterministic route assignments from `seed`.
    pub fn new(cfg: DieselNetConfig, seed: u64) -> Self {
        assert!(cfg.total_buses >= 2, "need at least two buses");
        assert!(cfg.routes >= 2, "need at least two routes");
        assert!(cfg.avg_on_road >= 2.0, "need at least two buses per day");
        let seeds = SeedStream::new(seed).derive("dieselnet");
        let mut rng = seeds.rng("routes");
        // Balanced assignment: round-robin then shuffle bus order, so every
        // route has ⌈n/routes⌉ or ⌊n/routes⌋ buses.
        let mut buses: Vec<usize> = (0..cfg.total_buses).collect();
        buses.shuffle(&mut rng);
        let mut route_of = vec![0usize; cfg.total_buses];
        for (slot, &bus) in buses.iter().enumerate() {
            route_of[bus] = slot % cfg.routes;
        }
        Self {
            cfg,
            route_of,
            seeds,
        }
    }

    /// The configuration this fleet was built with.
    pub fn config(&self) -> &DieselNetConfig {
        &self.cfg
    }

    /// The route of each bus.
    pub fn route_of(&self, bus: NodeId) -> usize {
        self.route_of[bus.index()]
    }

    /// Ring distance between two routes.
    fn route_distance(&self, a: usize, b: usize) -> usize {
        let d = a.abs_diff(b);
        d.min(self.cfg.routes - d)
    }

    /// Pairwise meeting rate (per hour) between two buses.
    pub fn pair_rate_per_hour(&self, a: NodeId, b: NodeId) -> f64 {
        match self.route_distance(self.route_of(a), self.route_of(b)) {
            0 => self.cfg.same_route_rate_per_hour,
            1 => self.cfg.adjacent_route_rate_per_hour,
            _ => self.cfg.far_route_rate_per_hour,
        }
    }

    /// Generates one service day. Determined entirely by the fleet seed and
    /// `day`, so individual days can be regenerated independently.
    pub fn generate_day(&self, day: u32) -> DayTrace {
        let mut rng = self.seeds.rng_indexed("day", u64::from(day));
        // How many buses are scheduled: Poisson around the mean, clamped to
        // a plausible band (the paper's counts vary day to day).
        let lo = (self.cfg.avg_on_road * 0.6).max(2.0) as usize;
        let hi = (self.cfg.avg_on_road * 1.4).min(self.cfg.total_buses as f64) as usize;
        let count = (Poisson::new(self.cfg.avg_on_road).sample(&mut rng) as usize).clamp(lo, hi);

        let mut fleet: Vec<usize> = (0..self.cfg.total_buses).collect();
        fleet.shuffle(&mut rng);
        let mut on_road: Vec<NodeId> = fleet[..count].iter().map(|&b| NodeId(b as u32)).collect();
        on_road.sort_unstable();

        let opp = LogNormal::with_mean(self.cfg.opportunity_mean_bytes, self.cfg.opportunity_sigma);
        let dur = (self.cfg.mean_contact_duration > TimeDelta::ZERO)
            .then(|| Exponential::with_mean(self.cfg.mean_contact_duration.as_secs_f64()));
        let hours = self.cfg.day_length.as_secs_f64() / 3600.0;
        let mut contacts = Vec::new();
        for (i, &a) in on_road.iter().enumerate() {
            for &b in &on_road[(i + 1)..] {
                let rate = self.pair_rate_per_hour(a, b);
                if rate <= 0.0 {
                    continue;
                }
                for t_hours in poisson_process(rate, hours, &mut rng) {
                    let bytes = opp.sample(&mut rng).max(1.0) as u64;
                    let duration = dur.as_ref().map_or(TimeDelta::ZERO, |d| {
                        TimeDelta::from_secs_f64(d.sample(&mut rng))
                    });
                    contacts.push(window(
                        Time::from_secs_f64(t_hours * 3600.0),
                        a,
                        b,
                        bytes,
                        duration,
                        // Windows end with the service day.
                        Time(self.cfg.day_length.0),
                    ));
                }
            }
        }
        DayTrace {
            day,
            on_road,
            schedule: Schedule::new(contacts),
        }
    }

    /// Generates `days` consecutive service days.
    pub fn generate_days(&self, days: u32) -> Vec<DayTrace> {
        (0..days).map(|d| self.generate_day(d)).collect()
    }

    /// Streams the windows of consecutive service days, each day shifted
    /// onto a common timeline (day `days.start + k` by `k · day_length`).
    ///
    /// This is the streaming source behind the trace experiments: the
    /// warm-up prefix plus the measured day are pulled one day at a time
    /// — each day is generated when the stream reaches it and dropped when
    /// exhausted, so peak memory is one day's schedule, not the whole
    /// multi-day contact plan. The emitted sequence is exactly the
    /// concatenation of the per-day schedules (each internally
    /// start-sorted; day starts never cross the day boundary), i.e. what
    /// materializing and stable-sorting all shifted windows would yield.
    pub fn stream_days(fleet: Arc<Self>, days: std::ops::Range<u32>) -> DayWindowStream {
        DayWindowStream {
            day_length: TimeDelta(fleet.cfg.day_length.0),
            fleet,
            days,
            offset: TimeDelta::ZERO,
            first: true,
            current: Vec::new().into_iter(),
        }
    }

    /// Serializes generated days as a contact trace (for persistence and
    /// interchange through `dtn-trace`).
    pub fn to_trace(days: &[DayTrace]) -> Trace {
        let mut records = Vec::new();
        for d in days {
            for &w in d.schedule.windows() {
                let mut r = ContactRecord::from(w);
                r.day = d.day;
                records.push(Record::Contact(r));
            }
        }
        Trace::new(records)
    }
}

/// Lazy multi-day window stream built by [`DieselNet::stream_days`].
#[derive(Debug)]
pub struct DayWindowStream {
    fleet: Arc<DieselNet>,
    days: std::ops::Range<u32>,
    day_length: TimeDelta,
    offset: TimeDelta,
    first: bool,
    current: std::vec::IntoIter<ContactWindow>,
}

impl Iterator for DayWindowStream {
    type Item = ContactWindow;

    fn next(&mut self) -> Option<ContactWindow> {
        loop {
            if let Some(w) = self.current.next() {
                return Some(w.shifted(self.offset));
            }
            let day = self.days.next()?;
            if self.first {
                self.first = false;
            } else {
                self.offset = self.offset + self.day_length;
            }
            let windows: Vec<ContactWindow> =
                self.fleet.generate_day(day).schedule.windows().to_vec();
            self.current = windows.into_iter();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::CompiledPlan;

    fn fleet() -> DieselNet {
        DieselNet::new(DieselNetConfig::default(), 42)
    }

    #[test]
    fn compiled_day_replays_the_schedule_exactly() {
        let f = fleet();
        let schedule = f.generate_day(3).schedule;
        let plan = Arc::new(CompiledPlan::compress_schedule(&schedule));
        let replayed: Vec<ContactWindow> = plan.stream().collect();
        assert_eq!(replayed, schedule.windows());
        assert_eq!(plan.window_count(), schedule.len() as u64);
    }

    #[test]
    fn daily_meeting_count_is_calibrated() {
        let f = fleet();
        let days = f.generate_days(30);
        let avg = days.iter().map(|d| d.schedule.len() as f64).sum::<f64>() / days.len() as f64;
        assert!(
            (90.0..220.0).contains(&avg),
            "avg meetings/day {avg} outside calibration band"
        );
    }

    #[test]
    fn on_road_counts_are_plausible() {
        let f = fleet();
        for d in f.generate_days(20) {
            assert!(
                (11..=26).contains(&d.on_road.len()),
                "day {} has {} buses",
                d.day,
                d.on_road.len()
            );
            // Every bus id is valid and unique.
            let mut ids = d.on_road.clone();
            ids.dedup();
            assert_eq!(ids.len(), d.on_road.len());
            assert!(ids.iter().all(|n| n.index() < 40));
            // Every contact endpoint is on the road.
            for c in d.schedule.windows() {
                assert!(d.on_road.contains(&c.a) && d.on_road.contains(&c.b));
            }
        }
    }

    #[test]
    fn far_pairs_rarely_meet() {
        // Per *pair*, same-route buses must meet far more often than
        // distant-route buses (far pairs outnumber same pairs ~9:1, so
        // totals are not comparable).
        let f = fleet();
        let days = f.generate_days(40);
        let (mut same, mut far) = (0usize, 0usize);
        let (mut same_pairs, mut far_pairs) = (0usize, 0usize);
        let mut counted = std::collections::BTreeSet::new();
        for d in &days {
            for (i, &a) in d.on_road.iter().enumerate() {
                for &b in &d.on_road[(i + 1)..] {
                    let dist = {
                        let (ra, rb) = (f.route_of(a), f.route_of(b));
                        let d = ra.abs_diff(rb);
                        d.min(10 - d)
                    };
                    if counted.insert((d.day, a, b)) {
                        if dist == 0 {
                            same_pairs += 1;
                        } else if dist >= 2 {
                            far_pairs += 1;
                        }
                    }
                }
            }
            for c in d.schedule.windows() {
                let dist = {
                    let (ra, rb) = (f.route_of(c.a), f.route_of(c.b));
                    let d = ra.abs_diff(rb);
                    d.min(10 - d)
                };
                if dist == 0 {
                    same += 1;
                } else if dist >= 2 {
                    far += 1;
                }
            }
        }
        let same_rate = same as f64 / same_pairs.max(1) as f64;
        let far_rate = far as f64 / far_pairs.max(1) as f64;
        assert!(
            same_rate > 3.0 * far_rate,
            "per-pair: same {same_rate:.2}/day vs far {far_rate:.2}/day"
        );
    }

    #[test]
    fn some_pairs_never_meet_directly() {
        // The structural property motivating h-hop meeting estimation.
        let f = fleet();
        let days = f.generate_days(20);
        let mut met = std::collections::BTreeSet::new();
        let mut seen_on_road = std::collections::BTreeSet::new();
        for d in &days {
            for &n in &d.on_road {
                seen_on_road.insert(n.0);
            }
            for c in d.schedule.windows() {
                met.insert((c.a.0.min(c.b.0), c.a.0.max(c.b.0)));
            }
        }
        let on_road: Vec<u32> = seen_on_road.into_iter().collect();
        let mut never = 0usize;
        for (i, &a) in on_road.iter().enumerate() {
            for &b in &on_road[(i + 1)..] {
                if !met.contains(&(a.min(b), a.max(b))) {
                    never += 1;
                }
            }
        }
        assert!(never > 0, "expected some pairs to never meet directly");
    }

    #[test]
    fn opportunity_sizes_are_heavy_tailed() {
        let f = fleet();
        let days = f.generate_days(20);
        let sizes: Vec<f64> = days
            .iter()
            .flat_map(|d| d.schedule.windows().iter().map(|c| c.capacity() as f64))
            .collect();
        let mean = sizes.iter().sum::<f64>() / sizes.len() as f64;
        assert!(
            (0.5e6..5.0e6).contains(&mean),
            "mean opportunity {mean} outside band"
        );
        let max = sizes.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            max > 4.0 * mean,
            "expected a heavy tail, max {max} mean {mean}"
        );
    }

    #[test]
    fn deterministic_and_independent_days() {
        let a = fleet().generate_day(7);
        let b = fleet().generate_day(7);
        assert_eq!(a, b);
        // Regenerating day 7 does not depend on generating days 0..6.
        let all = fleet().generate_days(8);
        assert_eq!(all[7], a);
        // Different days differ.
        assert_ne!(all[0], all[1]);
    }

    #[test]
    fn route_assignment_is_balanced() {
        let f = fleet();
        let mut per_route = [0usize; 10];
        for b in 0..40 {
            per_route[f.route_of(NodeId(b))] += 1;
        }
        assert!(per_route.iter().all(|&k| k == 4));
    }

    #[test]
    fn durative_fleet_emits_windows() {
        let cfg = DieselNetConfig {
            mean_contact_duration: TimeDelta::from_secs(120),
            ..DieselNetConfig::default()
        };
        let f = DieselNet::new(cfg, 42);
        let d = f.generate_day(3);
        assert!(!d.schedule.is_empty());
        assert!(d.schedule.windows().iter().all(|w| !w.is_instantaneous()));
        let mean_dur = d
            .schedule
            .windows()
            .iter()
            .map(|w| w.duration().as_secs_f64())
            .sum::<f64>()
            / d.schedule.len() as f64;
        assert!(
            (20.0..600.0).contains(&mean_dur),
            "mean window duration {mean_dur}s outside band"
        );
        // Windowed traces round-trip through the duration-aware format.
        let trace = DieselNet::to_trace(std::slice::from_ref(&d));
        let parsed = dtn_trace::parse(&trace.to_string_format()).unwrap();
        let rebuilt = Schedule::from_records(&parsed.contacts_on(3));
        assert_eq!(rebuilt, d.schedule);
    }

    #[test]
    fn default_fleet_is_instantaneous() {
        let f = fleet();
        let d = f.generate_day(0);
        assert!(d.schedule.windows().iter().all(|w| w.is_instantaneous()));
    }

    #[test]
    fn stream_days_matches_materialized_concatenation() {
        let f = Arc::new(fleet());
        let streamed: Vec<ContactWindow> = DieselNet::stream_days(Arc::clone(&f), 3..7).collect();
        // The materialized counterpart: every day generated, shifted onto
        // the common timeline, stable-sorted — the TraceLab assembly.
        let mut expected = Vec::new();
        for (k, day) in (3..7u32).enumerate() {
            let offset = TimeDelta(f.config().day_length.0 * k as u64);
            for w in f.generate_day(day).schedule.windows() {
                expected.push(w.shifted(offset));
            }
        }
        assert_eq!(streamed, Schedule::new(expected.clone()).windows());
        assert_eq!(streamed, expected, "days concatenate already sorted");
        assert!(!streamed.is_empty());
        assert!(streamed.windows(2).all(|w| w[0].start <= w[1].start));
    }

    #[test]
    fn trace_round_trip() {
        let f = fleet();
        let days = f.generate_days(3);
        let trace = DieselNet::to_trace(&days);
        let text = trace.to_string_format();
        let parsed = dtn_trace::parse(&text).unwrap();
        assert_eq!(trace, parsed);
        assert_eq!(parsed.days().len(), 3);
        // Schedules rebuilt from the trace match the originals.
        for d in &days {
            let rebuilt = Schedule::from_records(&parsed.contacts_on(d.day));
            assert_eq!(&rebuilt, &d.schedule);
        }
    }
}
