//! Scale-family scenario sources: O(1)-state generators for fleets far
//! beyond anything pairwise enumeration can hold.
//!
//! The pairwise models keep one RNG per node pair — fine for 20 buses,
//! hopeless for 100 000 nodes (5 × 10⁹ pairs). This module models the
//! fleet the other way around, as contact-plan *compression*: meetings
//! form one global Poisson process (rate = expected contacts / horizon),
//! and each meeting samples a uniformly random unordered pair. Per-pair
//! behaviour is still exponential inter-meeting (the thinning of a Poisson
//! process is Poisson), but generator state is a single clock and RNG —
//! windows stream in strictly nondecreasing order with O(1) memory, so the
//! full schedule never exists anywhere.
//!
//! A configurable **hub set** (nodes `0..hubs`) models the
//! millions-of-users-few-gateways shape of a production DTN: meetings are
//! biased toward hubs with probability `hub_bias`, and the packet source
//! addresses all traffic *to* hubs — so deliveries actually happen at
//! 100 000 nodes instead of replicas diffusing forever. `hubs = 0` turns
//! the bias off (uniform pairs everywhere).
//!
//! The packet source is the same shape as the contact source: a global
//! Poisson creation clock with random (src, dst) draws.
//!
//! Both sources are deterministic in `(seed, run)` via the same labelled
//! substream scheme the rest of the workspace uses.
//!
//! [`ScaleFleet`] and [`RegionalFleet`] differ only in *whom* a meeting
//! joins and a packet travels between — a draw closure each hands to the
//! one clock, window shape, periodic-route compiler and shape check below.

use dtn_sim::workload::PacketSpec;
use dtn_sim::{CompiledPlan, ContactWindow, NodeId, Partition, PlanAtom, Time, TimeDelta};
use dtn_stats::sample::Exponential;
use dtn_stats::SeedStream;
use rand::rngs::StdRng;
use rand::Rng;

/// A fleet whose meetings form one global Poisson process over uniformly
/// random pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleFleet {
    /// Number of nodes.
    pub nodes: usize,
    /// Expected number of contact windows over the horizon.
    pub contacts: u64,
    /// Transfer opportunity per meeting, bytes.
    pub opportunity_bytes: u64,
    /// Fixed contact-window duration (`ZERO` = instantaneous lumps).
    pub contact_duration: TimeDelta,
    /// End of the scenario; windows are clamped here.
    pub horizon: Time,
    /// Hub nodes (`0..hubs`): popular gateways meetings gravitate toward
    /// and packets are addressed to. `0` disables the hub structure.
    pub hubs: usize,
    /// Probability a meeting's second endpoint is drawn from the hub set
    /// (only meaningful when `hubs > 0`).
    pub hub_bias: f64,
}

impl ScaleFleet {
    /// Validates the hub structure ([`check`] covers the rest).
    fn hubs_checked(&self) -> Self {
        assert!(self.hubs <= self.nodes, "hub set cannot exceed the fleet");
        assert!(self.hubs != 1, "need at least two hubs (or none)");
        *self
    }

    /// One meeting's endpoints: a uniform pair, biased toward the hub set.
    fn pair_draw(&self) -> impl Fn(&mut StdRng) -> (usize, usize) + Send {
        let f = self.hubs_checked();
        move |rng| {
            if f.hubs > 0 && rng.gen::<f64>() < f.hub_bias {
                // A gateway meeting: one endpoint from the hub set.
                let a = rng.gen_range(0..f.nodes);
                (a, distinct_from(f.hubs, a, rng))
            } else {
                random_pair(f.nodes, rng)
            }
        }
    }

    /// Streams the fleet's contact windows for one run.
    pub fn contact_stream(
        &self,
        seed: u64,
        run: u64,
    ) -> impl Iterator<Item = ContactWindow> + Send {
        contact_stream(*self, "scale", self.pair_draw(), seed, run)
    }

    /// Compiles the fleet as `routes` recurring *periodic routes* — the
    /// generator-atom counterpart of [`ScaleFleet::contact_stream`] for
    /// scheduled (bus/satellite-pass-like) fleets. Each route is one
    /// [`dtn_sim::PlanAtom::Periodic`]: a pair drawn with the same hub
    /// bias as the Poisson stream, a common period sized so the total
    /// window count matches `self.contacts`, and a per-route phase
    /// uniform in the period. The whole plan costs O(routes) memory no
    /// matter how many windows it expands to — `contacts / routes`
    /// repeats per atom ride in a constant-size struct.
    ///
    /// Deterministic in `(seed, run)` via its own labelled substream.
    pub fn periodic_plan(&self, routes: usize, seed: u64, run: u64) -> CompiledPlan {
        periodic_plan(self, "scale", self.pair_draw(), routes, seed, run)
    }

    /// Streams a Poisson packet workload for one run: `packets` expected
    /// creations over the horizon, uniformly random distinct `(src, dst)`
    /// (every packet addressed to a hub when the fleet has any).
    pub fn packet_stream(
        &self,
        packets: u64,
        size_bytes: u64,
        seed: u64,
        run: u64,
    ) -> impl Iterator<Item = PacketSpec> + Send {
        let f = self.hubs_checked();
        let endpoints = move |rng: &mut StdRng| {
            if f.hubs > 0 {
                // User-to-gateway traffic: every packet is addressed to a hub.
                let dst = rng.gen_range(0..f.hubs);
                (distinct_from(f.nodes, dst, rng), dst)
            } else {
                random_pair(f.nodes, rng)
            }
        };
        packet_stream(f, "scale", endpoints, packets, size_bytes, seed, run)
    }
}

/// A region-structured fleet: the partition-aware emission the sharded
/// runtime ([`dtn_sim::shard`]) feeds on.
///
/// The node space is cut into `regions` contiguous blocks; the first
/// nodes of each block are its *gateways* (the fleet-wide hub budget
/// `fleet.hubs` spread across regions, at least one each). Meetings keep
/// the global-Poisson clock of [`ScaleFleet`], but the pair draw is
/// region-aware:
///
/// * with probability `locality` the meeting is **intra-region** — a
///   uniformly random pair inside one region, biased toward the region's
///   own gateways by `fleet.hub_bias`;
/// * otherwise it is a **gateway meeting** — one gateway from each of
///   two distinct regions (the hub-to-hub backbone).
///
/// Packets are user-to-gateway traffic *within* a region, so routing is
/// region-local except for what crosses the backbone. A [`Partition`]
/// from [`RegionalFleet::partition`] puts region boundaries on shard
/// boundaries, making every intra-region contact shard-local: the only
/// cross-shard (barrier) events are gateway meetings between regions of
/// different shards — a `1 - locality` sliver of the plan, which is what
/// lets shards free-run between sync horizons.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionalFleet {
    /// The underlying fleet shape (nodes, contact budget, opportunity,
    /// horizon; `hubs` is the fleet-wide gateway budget and `hub_bias`
    /// the intra-region gateway attraction).
    pub fleet: ScaleFleet,
    /// Number of contiguous regions.
    pub regions: usize,
    /// Probability a meeting stays inside one region.
    pub locality: f64,
}

impl RegionalFleet {
    /// Validates the region structure ([`check`] covers the rest) and
    /// lays the regions out evenly over the node space.
    fn layout(&self) -> Partition {
        assert!(self.regions >= 2, "need at least two regions");
        assert!(
            self.fleet.nodes / self.regions >= 2,
            "every region needs at least two nodes"
        );
        assert!(
            (0.0..=1.0).contains(&self.locality),
            "locality is a probability"
        );
        Partition::even(self.fleet.nodes, self.regions)
    }

    /// Gateways per region: the fleet-wide hub budget spread evenly, at
    /// least one per region (the backbone needs an endpoint everywhere).
    pub fn gateways_per_region(&self) -> usize {
        (self.fleet.hubs / self.regions).max(1)
    }

    /// A shard partition aligned to region boundaries: shard `s` owns a
    /// contiguous run of whole regions, so every intra-region contact is
    /// shard-local by construction. `shards` must not exceed `regions`.
    pub fn partition(&self, shards: usize) -> Partition {
        let layout = self.layout();
        assert!(shards >= 1, "need at least one shard");
        assert!(
            shards <= self.regions,
            "cannot split {} regions across {shards} shards",
            self.regions
        );
        let mut bounds = Vec::with_capacity(shards + 1);
        for s in 0..shards {
            bounds.push(layout.range(s * self.regions / shards).start as u32);
        }
        bounds.push(self.fleet.nodes as u32);
        Partition::from_bounds(bounds)
    }

    /// One meeting's endpoints: a gateway-biased pair inside one region,
    /// or one gateway from each of two regions.
    fn pair_draw(&self) -> impl Fn(&mut StdRng) -> (usize, usize) + Send {
        let (rf, layout) = (*self, self.layout());
        let gws = rf.gateways_per_region();
        move |rng| {
            if rng.gen::<f64>() < rf.locality {
                // Intra-region: uniform pair inside one region.
                let range = layout.range(rng.gen_range(0..rf.regions));
                let a = rng.gen_range(0..range.len());
                // Bias toward the region's gateways, unless `a` is the
                // sole gateway (no distinct peer in that pool).
                let pool = gws.min(range.len());
                let b = if rng.gen::<f64>() < rf.fleet.hub_bias && !(pool == 1 && a == 0) {
                    distinct_from(pool, a, rng)
                } else {
                    distinct_from(range.len(), a, rng)
                };
                (range.start + a, range.start + b)
            } else {
                // Backbone: one gateway from each of two distinct regions.
                let r1 = rng.gen_range(0..rf.regions);
                let r2 = distinct_from(rf.regions, r1, rng);
                let (g1, g2) = (layout.range(r1), layout.range(r2));
                let a = g1.start + rng.gen_range(0..gws.min(g1.len()));
                (a, g2.start + rng.gen_range(0..gws.min(g2.len())))
            }
        }
    }

    /// Streams the region-structured contact plan for one run
    /// (deterministic in `(seed, run)` via its own labelled substream).
    pub fn contact_stream(
        &self,
        seed: u64,
        run: u64,
    ) -> impl Iterator<Item = ContactWindow> + Send {
        contact_stream(self.fleet, "regional", self.pair_draw(), seed, run)
    }

    /// Streams region-local user-to-gateway packet traffic, the regional
    /// twin of [`ScaleFleet::packet_stream`].
    pub fn packet_stream(
        &self,
        packets: u64,
        size_bytes: u64,
        seed: u64,
        run: u64,
    ) -> impl Iterator<Item = PacketSpec> + Send {
        let (regions, layout) = (self.regions, self.layout());
        let gws = self.gateways_per_region();
        // Addressed to a gateway of the source's own region: deliveries
        // resolve locally, so shard-local routing does real work.
        let endpoints = move |rng: &mut StdRng| {
            let range = layout.range(rng.gen_range(0..regions));
            let dst = rng.gen_range(0..gws.min(range.len()));
            let src = distinct_from(range.len(), dst, rng);
            (range.start + src, range.start + dst)
        };
        packet_stream(
            self.fleet, "regional", endpoints, packets, size_bytes, seed, run,
        )
    }

    /// Compiles the regional fleet as recurring periodic routes — the
    /// [`CompiledPlan`] emission whose
    /// [`first_cross_shard_start`](CompiledPlan::first_cross_shard_start)
    /// against [`RegionalFleet::partition`] is the sharded runtime's
    /// static sync horizon. A `locality` share of the routes is
    /// intra-region; the rest are gateway routes between distinct
    /// regions. Deterministic in `(seed, run)`.
    pub fn periodic_plan(&self, routes: usize, seed: u64, run: u64) -> CompiledPlan {
        periodic_plan(&self.fleet, "regional", self.pair_draw(), routes, seed, run)
    }
}

/// The asserts every fleet shape shares.
fn check(f: &ScaleFleet) {
    assert!(f.nodes >= 2, "need at least two nodes");
    assert!(f.contacts > 0, "need a positive expected contact count");
    assert!(f.horizon > Time::ZERO, "need a positive horizon");
    assert!(
        (0.0..=1.0).contains(&f.hub_bias),
        "hub bias is a probability"
    );
}

/// The run's RNG for substream `what` of a fleet `shape`
/// (`scale-contacts`, `regional-routes`, …).
fn substream(shape: &str, what: &str, seed: u64, run: u64) -> StdRng {
    SeedStream::new(seed)
        .derive(&format!("{shape}-{what}"))
        .rng_indexed("run", run)
}

/// A window of the fleet's fixed shape opening at `start`: a lump when the
/// duration is zero, otherwise the opportunity spread over the window and
/// the end clamped at the horizon.
#[inline]
fn window_at(f: &ScaleFleet, start: Time, (a, b): (usize, usize)) -> ContactWindow {
    let (a, b) = (NodeId(a as u32), NodeId(b as u32));
    if f.contact_duration == TimeDelta::ZERO {
        return ContactWindow::instant(start, a, b, f.opportunity_bytes);
    }
    let rate = (f.opportunity_bytes as f64 / f.contact_duration.as_secs_f64())
        .floor()
        .max(1.0) as u64;
    let end = (start + f.contact_duration).min(f.horizon).max(start);
    ContactWindow::new(start, end, a, b, rate)
}

/// A fleet's contact stream — a global Poisson clock and one `pair` draw
/// per window; O(1) state, nondecreasing starts.
fn contact_stream(
    f: ScaleFleet,
    shape: &str,
    pair: impl Fn(&mut StdRng) -> (usize, usize) + Send,
    seed: u64,
    run: u64,
) -> impl Iterator<Item = ContactWindow> + Send {
    check(&f);
    let rng = substream(shape, "contacts", seed, run);
    let mut clock = PoissonClock::new(f.contacts, f.horizon, rng);
    std::iter::from_fn(move || {
        let start = clock.tick()?;
        Some(window_at(&f, start, pair(&mut clock.rng)))
    })
}

/// A fleet's packet stream — a global Poisson creation clock and one
/// `(src, dst)` draw per packet; O(1) state.
fn packet_stream(
    f: ScaleFleet,
    shape: &str,
    endpoints: impl Fn(&mut StdRng) -> (usize, usize) + Send,
    packets: u64,
    size_bytes: u64,
    seed: u64,
    run: u64,
) -> impl Iterator<Item = PacketSpec> + Send {
    assert!(packets > 0, "need a positive expected packet count");
    check(&f);
    let rng = substream(shape, "packets", seed, run);
    let mut clock = PoissonClock::new(packets, f.horizon, rng);
    std::iter::from_fn(move || {
        let time = clock.tick()?;
        let (src, dst) = endpoints(&mut clock.rng);
        Some(PacketSpec {
            time,
            src: NodeId(src as u32),
            dst: NodeId(dst as u32),
            size_bytes,
        })
    })
}

/// The periodic-route compiler behind both fleets' `periodic_plan`.
fn periodic_plan(
    f: &ScaleFleet,
    shape: &str,
    pair: impl Fn(&mut StdRng) -> (usize, usize),
    routes: usize,
    seed: u64,
    run: u64,
) -> CompiledPlan {
    assert!(routes > 0, "need a positive route count");
    check(f);
    let mut rng = substream(shape, "routes", seed, run);
    // Start-to-start gap so that `routes` trains together expand to
    // ~`contacts` windows across the horizon.
    let period_us = (f.horizon.0 * routes as u64 / f.contacts).max(1);
    // Last start that keeps the whole window inside the horizon.
    let last_start = f
        .horizon
        .0
        .saturating_sub(f.contact_duration.0)
        .saturating_sub(1);
    let mut atoms = Vec::with_capacity(routes);
    for _ in 0..routes {
        let ends = pair(&mut rng);
        let phase = rng.gen_range(0..period_us).min(last_start);
        let template = window_at(f, Time(phase), ends);
        let repeats = (last_start - phase) / period_us + 1;
        atoms.push(if repeats >= 2 {
            PlanAtom::Periodic {
                template,
                period: TimeDelta(period_us),
                repeats: u32::try_from(repeats).expect("repeats fit u32"),
            }
        } else {
            PlanAtom::Literal(template)
        });
    }
    CompiledPlan::new(atoms)
}

/// A Poisson arrival clock over one RNG substream: exponential gaps until
/// the horizon.
struct PoissonClock {
    gap: Exponential,
    t: f64,
    horizon_s: f64,
    rng: StdRng,
}

impl PoissonClock {
    fn new(expected: u64, horizon: Time, rng: StdRng) -> Self {
        let horizon_s = horizon.as_secs_f64();
        Self {
            gap: Exponential::new(expected as f64 / horizon_s),
            t: 0.0,
            horizon_s,
            rng,
        }
    }

    /// Advances to the next arrival; `None` once it falls past the horizon.
    #[inline]
    fn tick(&mut self) -> Option<Time> {
        self.t += self.gap.sample(&mut self.rng);
        (self.t < self.horizon_s).then(|| Time::from_secs_f64(self.t))
    }
}

/// Draws a random node distinct from `not`, from `0..pool`.
fn distinct_from(pool: usize, not: usize, rng: &mut StdRng) -> usize {
    loop {
        let b = rng.gen_range(0..pool);
        if b != not {
            return b;
        }
    }
}

/// Draws a uniformly random pair of distinct nodes.
fn random_pair(nodes: usize, rng: &mut StdRng) -> (usize, usize) {
    let a = rng.gen_range(0..nodes);
    (a, distinct_from(nodes, a, rng))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet() -> ScaleFleet {
        ScaleFleet {
            nodes: 50_000,
            contacts: 20_000,
            opportunity_bytes: 64 * 1024,
            contact_duration: TimeDelta::ZERO,
            horizon: Time::from_secs(3600),
            hubs: 0,
            hub_bias: 0.0,
        }
    }

    #[test]
    fn contact_count_tracks_expectation() {
        let count = fleet().contact_stream(1, 0).count() as f64;
        assert!(
            (count - 20_000.0).abs() < 20_000.0 * 0.05,
            "expected ~20000, got {count}"
        );
    }

    #[test]
    fn contacts_are_ordered_valid_and_deterministic() {
        let f = fleet();
        let a: Vec<_> = f.contact_stream(1, 0).take(5000).collect();
        assert!(a.windows(2).all(|w| w[0].start <= w[1].start));
        assert!(a.iter().all(|w| w.a != w.b
            && w.a.index() < f.nodes
            && w.b.index() < f.nodes
            && w.end <= f.horizon));
        let b: Vec<_> = f.contact_stream(1, 0).take(5000).collect();
        assert_eq!(a, b);
        let c: Vec<_> = f.contact_stream(1, 1).take(5000).collect();
        assert_ne!(a, c, "runs draw independent substreams");
    }

    #[test]
    fn durative_scale_windows_clamp() {
        let f = ScaleFleet {
            contact_duration: TimeDelta::from_secs(120),
            ..fleet()
        };
        let windows: Vec<_> = f.contact_stream(2, 0).take(2000).collect();
        assert!(windows.iter().all(|w| w.end <= f.horizon));
        assert!(windows.iter().any(|w| !w.is_instantaneous()));
    }

    #[test]
    fn packets_are_ordered_valid_and_deterministic() {
        let f = fleet();
        let a: Vec<_> = f.packet_stream(2000, 1024, 9, 0).collect();
        assert!((a.len() as f64 - 2000.0).abs() < 2000.0 * 0.15);
        assert!(a.windows(2).all(|p| p[0].time <= p[1].time));
        assert!(a.iter().all(|p| p.src != p.dst && p.time < f.horizon));
        let b: Vec<_> = f.packet_stream(2000, 1024, 9, 0).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn periodic_plan_hits_the_contact_budget_in_tiny_memory() {
        let f = fleet();
        let plan = f.periodic_plan(100, 1, 0);
        assert_eq!(plan.atom_count(), 100);
        let windows = plan.window_count() as f64;
        assert!(
            (windows - f.contacts as f64).abs() < f.contacts as f64 * 0.05,
            "expected ~{}, got {windows}",
            f.contacts
        );
        // ≥10× plan-representation reduction vs materializing.
        assert!(plan.materialized_bytes() as usize >= 10 * plan.in_memory_bytes());
        let expanded: Vec<_> = std::sync::Arc::new(plan.clone()).stream().collect();
        assert_eq!(expanded.len() as u64, plan.window_count());
        assert!(expanded.windows(2).all(|w| w[0].start <= w[1].start));
        assert!(expanded
            .iter()
            .all(|w| w.a != w.b && w.a.index() < f.nodes && w.end < f.horizon));
        assert_eq!(
            plan,
            f.periodic_plan(100, 1, 0),
            "deterministic in (seed, run)"
        );
        assert_ne!(plan, f.periodic_plan(100, 1, 1), "runs differ");
    }

    #[test]
    fn periodic_plan_respects_hub_bias_and_duration() {
        let f = ScaleFleet {
            hubs: 16,
            hub_bias: 0.5,
            contact_duration: TimeDelta::from_secs(60),
            ..fleet()
        };
        let plan = f.periodic_plan(400, 9, 0);
        let hub_routes = plan
            .atoms()
            .iter()
            .filter(|a| {
                let t = a.template();
                t.a.index() < 16 || t.b.index() < 16
            })
            .count() as f64;
        let share = hub_routes / plan.atom_count() as f64;
        assert!(
            (0.35..0.65).contains(&share),
            "hub route share {share} far from bias"
        );
        let expanded: Vec<_> = std::sync::Arc::new(plan).stream().collect();
        assert!(expanded.iter().all(|w| w.end <= f.horizon));
        assert!(expanded.iter().any(|w| !w.is_instantaneous()));
    }

    #[test]
    fn hub_structure_biases_meetings_and_addresses_traffic() {
        let f = ScaleFleet {
            hubs: 16,
            hub_bias: 0.5,
            ..fleet()
        };
        let windows: Vec<_> = f.contact_stream(4, 0).take(4000).collect();
        let hub_meetings = windows
            .iter()
            .filter(|w| w.a.index() < 16 || w.b.index() < 16)
            .count() as f64;
        let share = hub_meetings / windows.len() as f64;
        assert!(
            (0.4..0.6).contains(&share),
            "hub meeting share {share} far from bias"
        );
        assert!(windows.iter().all(|w| w.a != w.b));
        let packets: Vec<_> = f.packet_stream(1000, 1024, 4, 0).collect();
        assert!(packets.iter().all(|p| p.dst.index() < 16 && p.src != p.dst));
    }

    fn regional() -> RegionalFleet {
        RegionalFleet {
            fleet: ScaleFleet {
                hubs: 32,
                hub_bias: 0.3,
                ..fleet()
            },
            regions: 8,
            locality: 0.9,
        }
    }

    #[test]
    fn regional_partition_aligns_with_region_boundaries() {
        let rf = regional();
        for shards in [1, 2, 4, 8] {
            let p = rf.partition(shards);
            assert_eq!(p.shards(), shards);
            assert_eq!(p.nodes(), rf.fleet.nodes);
            // Every shard boundary is also a region boundary.
            let layout = Partition::even(rf.fleet.nodes, rf.regions);
            for s in 0..shards {
                let start = p.range(s).start;
                assert!(
                    (0..rf.regions).any(|r| layout.range(r).start == start),
                    "shard {s} starts mid-region at node {start}"
                );
            }
        }
    }

    #[test]
    fn regional_contacts_are_local_or_gateway_backbone() {
        let rf = regional();
        let part = rf.partition(4);
        let layout = Partition::even(rf.fleet.nodes, rf.regions);
        let gws = rf.gateways_per_region();
        let windows: Vec<_> = rf.contact_stream(11, 0).take(5000).collect();
        assert!(!windows.is_empty());
        let mut cross = 0usize;
        for w in &windows {
            assert!(w.a != w.b);
            let (ra, rb) = (
                layout.shard_of(w.a), // region of a (layout = region partition)
                layout.shard_of(w.b),
            );
            if ra != rb {
                // Cross-region meetings happen only between gateways.
                for (n, r) in [(w.a, ra), (w.b, rb)] {
                    assert!(
                        n.index() - layout.range(r).start < gws,
                        "cross-region endpoint {n} is not a gateway"
                    );
                }
            }
            if part.shard_of(w.a) != part.shard_of(w.b) {
                cross += 1;
            }
        }
        // With locality 0.9 the cross-shard share is a sliver, but the
        // backbone must exist.
        assert!(cross >= 1, "no backbone meetings at all");
        assert!(
            (cross as f64) < 0.2 * windows.len() as f64,
            "cross-shard share too large: {cross}/{}",
            windows.len()
        );
    }

    #[test]
    fn regional_packets_stay_in_region_and_streams_are_deterministic() {
        let rf = regional();
        let layout = Partition::even(rf.fleet.nodes, rf.regions);
        let gws = rf.gateways_per_region();
        let packets: Vec<_> = rf.packet_stream(2000, 1024, 11, 0).collect();
        assert!(!packets.is_empty());
        for p in &packets {
            assert!(p.src != p.dst);
            let r = layout.shard_of(p.dst);
            assert_eq!(layout.shard_of(p.src), r, "packet crosses regions");
            assert!(
                p.dst.index() - layout.range(r).start < gws,
                "dst not a gateway"
            );
        }
        let again: Vec<_> = rf.packet_stream(2000, 1024, 11, 0).collect();
        assert_eq!(packets, again);
        let w1: Vec<_> = rf.contact_stream(11, 3).take(500).collect();
        let w2: Vec<_> = rf.contact_stream(11, 3).take(500).collect();
        assert_eq!(w1, w2);
        assert_ne!(
            w1,
            rf.contact_stream(11, 4).take(500).collect::<Vec<_>>(),
            "runs must differ"
        );
    }

    #[test]
    fn regional_plan_yields_a_finite_cross_shard_horizon() {
        let rf = regional();
        let plan = rf.periodic_plan(4000, 11, 0);
        assert!(plan.window_count() > 0);
        let part = rf.partition(4);
        let horizon = plan
            .first_cross_shard_start(&part)
            .expect("backbone routes exist");
        assert!(horizon < rf.fleet.horizon);
        // Single shard: everything is local, no barrier needed.
        assert_eq!(plan.first_cross_shard_start(&rf.partition(1)), None);
        // Deterministic compilation.
        assert_eq!(plan, rf.periodic_plan(4000, 11, 0));
    }
}
