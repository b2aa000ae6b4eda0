//! The discrete-event simulation engine.
//!
//! Mirrors the paper's evaluation vehicle (§5.3) — "The simulator takes as
//! input a schedule of node meetings, the bandwidth available at each
//! meeting, and a routing algorithm" — generalized into a typed
//! discrete-event core. The event-merge scan ([`crate::scan`]) drains
//! [`SimEvent`]s (contact window open/close, packet creation, TTL expiry,
//! node churn) in the documented tie-break order; at each driven contact the
//! routing protocol moves packets through a [`ContactDriver`] that enforces
//! the feasibility rules of §3.1. This module holds the serial entry
//! points; [`crate::shard`] holds the sharded ones.
//!
//! Contact windows ([`crate::contact::ContactWindow`]) are durative: the
//! protocol is driven when a window *closes* (or is interrupted by churn),
//! with the per-direction budget the link accrued while open. The paper's
//! instantaneous meeting is the degenerate zero-duration window, driven
//! immediately at its start with its lump opportunity — which reproduces the
//! seed engine's behaviour byte-for-byte for instantaneous schedules. Runs
//! are deterministic given the configuration seed.
//!
//! [`SimEvent`]: crate::event::SimEvent
//! [`ContactDriver`]: crate::driver::ContactDriver

use crate::checkpoint::{require_checkpointable, RunHooks};
use crate::contact::Schedule;
use crate::event::NodeEvent;
use crate::noise::NoiseModel;
use crate::report::SimReport;
use crate::routing::{Routing, SimConfig};
use crate::scan::{scan, Immediate};
use crate::source::{ContactSource, WorkloadSource};

/// A fully specified simulation run: configuration, contact-window schedule,
/// packet workload and (optionally) node churn.
#[derive(Debug, Clone)]
pub struct Simulation {
    config: SimConfig,
    schedule: Schedule,
    workload: crate::workload::Workload,
    noise: Option<NoiseModel>,
    churn: Vec<NodeEvent>,
}

impl Simulation {
    /// Assembles a run and validates that every node id referenced by the
    /// schedule or workload is below `config.nodes`.
    pub fn new(config: SimConfig, schedule: Schedule, workload: crate::workload::Workload) -> Self {
        let n = config.nodes;
        for w in schedule.windows() {
            assert!(
                w.a.index() < n && w.b.index() < n,
                "contact references node outside 0..{n}"
            );
        }
        for s in workload.specs() {
            assert!(
                s.src.index() < n && s.dst.index() < n,
                "packet references node outside 0..{n}"
            );
        }
        Self {
            config,
            schedule,
            workload,
            noise: None,
            churn: Vec::new(),
        }
    }

    /// Enables deployment-noise emulation for this run (§5, Fig. 3).
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Adds node churn: availability transitions that interrupt active
    /// contact windows and suppress new ones while a node is down. All
    /// nodes start up; buffers are retained across downtime (a parked bus
    /// keeps its disk).
    pub fn with_churn(mut self, churn: Vec<NodeEvent>) -> Self {
        let n = self.config.nodes;
        for ev in &churn {
            assert!(ev.node.index() < n, "churn references node outside 0..{n}");
        }
        self.churn = churn;
        self
    }

    /// The run's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The meeting schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The packet workload.
    pub fn workload(&self) -> &crate::workload::Workload {
        &self.workload
    }

    /// The node churn events.
    pub fn churn(&self) -> &[NodeEvent] {
        &self.churn
    }

    /// Executes the run against `routing` and returns the measured report.
    ///
    /// The engine owns all world state; the protocol only moves packets
    /// through the [`ContactDriver`](crate::driver::ContactDriver).
    /// Identical inputs (including `config.seed`) produce identical reports.
    ///
    /// This is the materialized convenience wrapper around
    /// [`run_streaming`]: the schedule and workload are streamed through
    /// borrowing cursors, reproducing the seed engine's drain order
    /// byte-for-byte.
    pub fn run(&self, routing: &mut dyn Routing) -> SimReport {
        let mut contacts = self.schedule.windows().iter().copied();
        let mut workload = self.workload.specs().iter().copied();
        run_streaming(
            &self.config,
            &mut contacts,
            &mut workload,
            &self.churn,
            self.noise,
            routing,
        )
    }
}

/// Executes one run by *pulling* contact windows and packet creations from
/// streaming sources — the scenario is never materialized, so peak memory
/// is bounded by the open state (buffers, in-flight packets, open windows),
/// not the contact-plan size. The drain order and the source contract are
/// those of the event-merge scan (see `crate::scan::scan`).
pub fn run_streaming(
    config: &SimConfig,
    contacts: &mut dyn ContactSource,
    workload: &mut dyn WorkloadSource,
    churn: &[NodeEvent],
    noise: Option<NoiseModel>,
    routing: &mut dyn Routing,
) -> SimReport {
    run_streaming_hooked(
        config,
        contacts,
        workload,
        churn,
        noise,
        routing,
        RunHooks::default(),
    )
}

/// [`run_streaming`] with crash-safety hooks: periodic checkpoints,
/// resume from a [`crate::checkpoint::Snapshot`], and fault injection. A
/// resumed run is byte-identical to the uninterrupted run from the same
/// inputs — the snapshot holds the full serial-order state (see
/// [`crate::checkpoint`]).
pub fn run_streaming_hooked(
    config: &SimConfig,
    contacts: &mut dyn ContactSource,
    workload: &mut dyn WorkloadSource,
    churn: &[NodeEvent],
    noise: Option<NoiseModel>,
    routing: &mut dyn Routing,
    hooks: RunHooks<'_>,
) -> SimReport {
    if hooks.checkpoint.is_some() || hooks.resume.is_some() {
        require_checkpointable(routing);
    }
    routing.on_init(config);
    let mut exec = Immediate { routing };
    scan(config, contacts, workload, churn, noise, hooks, &mut exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contact::{Contact, ContactWindow};
    use crate::driver::ContactDriver;
    use crate::routing::TransferOutcome;
    use crate::time::{Time, TimeDelta};
    use crate::types::{NodeId, Packet, PacketId};
    use crate::workload::{PacketSpec, Workload};

    /// Minimal flooding protocol for engine tests: each side sends
    /// everything it can, destined packets first.
    struct Flood;

    impl Routing for Flood {
        fn name(&self) -> String {
            "flood-test".into()
        }

        fn on_contact(&mut self, driver: &mut ContactDriver<'_>) {
            let (a, b) = driver.endpoints();
            for from in [a, b] {
                let to = driver.peer_of(from);
                let mut ids = driver.buffer(from).ids();
                // Destined packets first (direct delivery step).
                ids.sort_by_key(|&id| driver.packets().get(id).dst != to);
                for id in ids {
                    if driver.try_transfer(from, id) == TransferOutcome::NoBandwidth {
                        break;
                    }
                }
            }
        }
    }

    fn config(nodes: usize) -> SimConfig {
        SimConfig {
            nodes,
            horizon: Time::from_secs(100),
            ..SimConfig::default()
        }
    }

    fn spec(t: u64, src: u32, dst: u32, size: u64) -> PacketSpec {
        PacketSpec {
            time: Time::from_secs(t),
            src: NodeId(src),
            dst: NodeId(dst),
            size_bytes: size,
        }
    }

    #[test]
    fn single_hop_delivery() {
        let sim = Simulation::new(
            config(2),
            Schedule::new(vec![Contact::new(
                Time::from_secs(10),
                NodeId(0),
                NodeId(1),
                4096,
            )]),
            Workload::new(vec![spec(1, 0, 1, 1024)]),
        );
        let r = sim.run(&mut Flood);
        assert_eq!(r.delivered(), 1);
        assert!((r.avg_delay_secs().unwrap() - 9.0).abs() < 1e-9);
        assert_eq!(r.data_bytes, 1024);
        assert_eq!(r.offered_bytes, 8192);
        assert_eq!(r.contacts, 1);
    }

    #[test]
    fn bandwidth_limits_transfers() {
        // Opportunity of 1 KB per direction, two 1 KB packets: one crosses.
        let sim = Simulation::new(
            config(2),
            Schedule::new(vec![Contact::new(
                Time::from_secs(10),
                NodeId(0),
                NodeId(1),
                1024,
            )]),
            Workload::new(vec![spec(1, 0, 1, 1024), spec(2, 0, 1, 1024)]),
        );
        let r = sim.run(&mut Flood);
        assert_eq!(r.delivered(), 1);
        assert_eq!(r.data_bytes, 1024);
    }

    #[test]
    fn two_hop_relay() {
        // 0 meets 1, then 1 meets 2; packet 0→2 must relay through 1.
        let sim = Simulation::new(
            config(3),
            Schedule::new(vec![
                Contact::new(Time::from_secs(10), NodeId(0), NodeId(1), 4096),
                Contact::new(Time::from_secs(20), NodeId(1), NodeId(2), 4096),
            ]),
            Workload::new(vec![spec(0, 0, 2, 1024)]),
        );
        let r = sim.run(&mut Flood);
        assert_eq!(r.delivered(), 1);
        assert!((r.avg_delay_secs().unwrap() - 20.0).abs() < 1e-9);
        // One replication (0→1) plus one delivery (1→2).
        assert_eq!(r.replications, 1);
        assert_eq!(r.data_bytes, 2048);
    }

    #[test]
    fn source_buffer_overflow_drops_at_creation() {
        let cfg = SimConfig {
            buffer_capacity: 1500,
            ..config(2)
        };
        let sim = Simulation::new(
            cfg,
            Schedule::default(),
            Workload::new(vec![spec(1, 0, 1, 1024), spec(2, 0, 1, 1024)]),
        );
        let r = sim.run(&mut Flood);
        assert_eq!(r.created(), 2);
        let entered: Vec<bool> = r.outcomes.iter().map(|o| o.entered_network).collect();
        assert_eq!(entered, vec![true, false]);
    }

    #[test]
    fn deterministic_across_runs() {
        let build = || {
            Simulation::new(
                config(3),
                Schedule::new(vec![
                    Contact::new(Time::from_secs(5), NodeId(0), NodeId(1), 2048),
                    Contact::new(Time::from_secs(9), NodeId(1), NodeId(2), 2048),
                ]),
                Workload::new(vec![spec(0, 0, 2, 1024), spec(1, 2, 0, 1024)]),
            )
        };
        let r1 = build().run(&mut Flood);
        let r2 = build().run(&mut Flood);
        assert_eq!(r1, r2);
    }

    #[test]
    fn contact_before_creation_at_same_instant() {
        // The packet is created at t=10, the contact is at t=10: the packet
        // must not ride that contact.
        let sim = Simulation::new(
            config(2),
            Schedule::new(vec![Contact::new(
                Time::from_secs(10),
                NodeId(0),
                NodeId(1),
                4096,
            )]),
            Workload::new(vec![spec(10, 0, 1, 1024)]),
        );
        let r = sim.run(&mut Flood);
        assert_eq!(r.delivered(), 0);
    }

    #[test]
    fn noise_failure_prob_one_kills_all_contacts() {
        let sim = Simulation::new(
            config(2),
            Schedule::new(vec![Contact::new(
                Time::from_secs(10),
                NodeId(0),
                NodeId(1),
                4096,
            )]),
            Workload::new(vec![spec(1, 0, 1, 1024)]),
        )
        .with_noise(NoiseModel {
            contact_failure_prob: 1.0,
            setup_loss_bytes_mean: 0.0,
            processing_delay_mean: TimeDelta::ZERO,
        });
        let r = sim.run(&mut Flood);
        assert_eq!(r.contacts_failed, 1);
        assert_eq!(r.contacts, 0);
        assert_eq!(r.delivered(), 0);
    }

    #[test]
    fn noise_processing_delay_shifts_delivery_times() {
        let base = Simulation::new(
            config(2),
            Schedule::new(vec![Contact::new(
                Time::from_secs(10),
                NodeId(0),
                NodeId(1),
                4096,
            )]),
            Workload::new(vec![spec(1, 0, 1, 1024)]),
        );
        let clean = base.clone().run(&mut Flood);
        let noisy = base
            .with_noise(NoiseModel {
                contact_failure_prob: 0.0,
                setup_loss_bytes_mean: 0.0,
                processing_delay_mean: TimeDelta::from_secs(5),
            })
            .run(&mut Flood);
        assert_eq!(noisy.delivered(), 1);
        assert!(noisy.avg_delay_secs().unwrap() > clean.avg_delay_secs().unwrap());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_out_of_range_nodes() {
        let _ = Simulation::new(
            config(1),
            Schedule::new(vec![Contact::new(Time::ZERO, NodeId(0), NodeId(1), 1)]),
            Workload::default(),
        );
    }

    #[test]
    #[should_panic(expected = "global knowledge is disabled")]
    fn global_view_gated() {
        struct Peeker;
        impl Routing for Peeker {
            fn name(&self) -> String {
                "peeker".into()
            }
            fn on_contact(&mut self, driver: &mut ContactDriver<'_>) {
                let _ = driver.global();
            }
        }
        let sim = Simulation::new(
            config(2),
            Schedule::new(vec![Contact::new(
                Time::from_secs(1),
                NodeId(0),
                NodeId(1),
                1,
            )]),
            Workload::default(),
        );
        let _ = sim.run(&mut Peeker);
    }

    #[test]
    fn global_view_when_enabled() {
        struct Checker {
            saw_holder: bool,
        }
        impl Routing for Checker {
            fn name(&self) -> String {
                "checker".into()
            }
            fn on_contact(&mut self, driver: &mut ContactDriver<'_>) {
                let g = driver.global();
                self.saw_holder = g.holders(PacketId(0)).eq([NodeId(0)]);
                assert!(!g.is_delivered(PacketId(0)));
            }
        }
        let cfg = SimConfig {
            allow_global_knowledge: true,
            ..config(2)
        };
        let sim = Simulation::new(
            cfg,
            Schedule::new(vec![Contact::new(
                Time::from_secs(5),
                NodeId(0),
                NodeId(1),
                0,
            )]),
            Workload::new(vec![spec(1, 0, 1, 1024)]),
        );
        let mut p = Checker { saw_holder: false };
        let _ = sim.run(&mut p);
        assert!(p.saw_holder);
    }

    #[test]
    fn metadata_accounting() {
        struct MetaOnly;
        impl Routing for MetaOnly {
            fn name(&self) -> String {
                "meta".into()
            }
            fn on_contact(&mut self, driver: &mut ContactDriver<'_>) {
                let (a, b) = driver.endpoints();
                assert_eq!(driver.charge_metadata(a, 100), 100);
                // Over-asking is clamped to the remaining opportunity.
                assert_eq!(driver.charge_metadata(b, 10_000), 1024);
                assert_eq!(driver.remaining_bytes(a), 924);
                assert_eq!(driver.remaining_bytes(b), 0);
            }
        }
        let sim = Simulation::new(
            config(2),
            Schedule::new(vec![Contact::new(
                Time::from_secs(5),
                NodeId(0),
                NodeId(1),
                1024,
            )]),
            Workload::default(),
        );
        let r = sim.run(&mut MetaOnly);
        assert_eq!(r.metadata_bytes, 1124);
        assert_eq!(r.data_bytes, 0);
        assert!((r.metadata_over_bandwidth() - 1124.0 / 2048.0).abs() < 1e-12);
    }

    #[test]
    fn needs_space_then_evict_then_replicate() {
        struct Evictor;
        impl Routing for Evictor {
            fn name(&self) -> String {
                "evictor".into()
            }
            fn on_contact(&mut self, driver: &mut ContactDriver<'_>) {
                let (a, b) = driver.endpoints();
                // b's buffer already holds p1 (created there); a holds p0.
                let p0 = PacketId(0);
                match driver.try_transfer(a, p0) {
                    TransferOutcome::NeedsSpace(needed) => {
                        assert!(needed > 0);
                        assert!(driver.evict(b, PacketId(1)));
                        assert_eq!(driver.try_transfer(a, p0), TransferOutcome::Replicated);
                    }
                    other => panic!("expected NeedsSpace, got {other:?}"),
                }
            }
        }
        let cfg = SimConfig {
            nodes: 3,
            buffer_capacity: 1024,
            horizon: Time::from_secs(100),
            ..SimConfig::default()
        };
        let sim = Simulation::new(
            cfg,
            Schedule::new(vec![Contact::new(
                Time::from_secs(10),
                NodeId(0),
                NodeId(1),
                4096,
            )]),
            // p0 at node 0 (dst 2 ⇒ replication, not delivery); p1 fills node 1.
            Workload::new(vec![spec(1, 0, 2, 1024), spec(2, 1, 2, 1024)]),
        );
        let r = sim.run(&mut Evictor);
        assert_eq!(r.replications, 1);
    }

    #[test]
    fn delivered_duplicate_detected() {
        // Node 0 and node 1 both hold p0 (via flooding), both meet node 2.
        struct TwoSenders;
        impl Routing for TwoSenders {
            fn name(&self) -> String {
                "two".into()
            }
            fn on_contact(&mut self, driver: &mut ContactDriver<'_>) {
                let (a, b) = driver.endpoints();
                for from in [a, b] {
                    for id in driver.buffer(from).ids() {
                        let _ = driver.try_transfer(from, id);
                    }
                }
            }
        }
        let sim = Simulation::new(
            config(3),
            Schedule::new(vec![
                // 0 meets 1: replicate p0 to 1.
                Contact::new(Time::from_secs(5), NodeId(0), NodeId(1), 4096),
                // 0 delivers to 2.
                Contact::new(Time::from_secs(10), NodeId(0), NodeId(2), 4096),
                // 1 re-delivers to 2 — duplicate.
                Contact::new(Time::from_secs(15), NodeId(1), NodeId(2), 4096),
            ]),
            Workload::new(vec![spec(0, 0, 2, 1024)]),
        );
        let r = sim.run(&mut TwoSenders);
        assert_eq!(r.delivered(), 1);
        assert!((r.avg_delay_secs().unwrap() - 10.0).abs() < 1e-9);
        // 1 replication + 2 delivery transmissions crossed links.
        assert_eq!(r.data_bytes, 3 * 1024);
    }

    // --- Windowed-contact and churn semantics -----------------------------

    #[test]
    fn zero_duration_window_equals_instant_contact() {
        let run = |schedule: Schedule| {
            Simulation::new(
                config(2),
                schedule,
                Workload::new(vec![spec(1, 0, 1, 1024), spec(2, 0, 1, 1024)]),
            )
            .run(&mut Flood)
        };
        let via_contact = run(Schedule::new(vec![Contact::new(
            Time::from_secs(10),
            NodeId(0),
            NodeId(1),
            1024,
        )]));
        let via_window = run(Schedule::new(vec![ContactWindow::instant(
            Time::from_secs(10),
            NodeId(0),
            NodeId(1),
            1024,
        )]));
        assert_eq!(via_contact, via_window);
    }

    #[test]
    fn durative_window_accrues_bandwidth_and_delivers_at_close() {
        // Window open 10 s at 100 B/s: 1000 B budget. The 800 B packet
        // crosses; a second 800 B packet does not (accrual is the limit).
        let sim = Simulation::new(
            config(2),
            Schedule::new(vec![ContactWindow::new(
                Time::from_secs(10),
                Time::from_secs(20),
                NodeId(0),
                NodeId(1),
                100,
            )]),
            Workload::new(vec![spec(1, 0, 1, 800), spec(2, 0, 1, 800)]),
        );
        let r = sim.run(&mut Flood);
        assert_eq!(r.delivered(), 1);
        assert_eq!(r.data_bytes, 800);
        assert_eq!(r.offered_bytes, 2 * 1000);
        // The protocol is driven when the window closes.
        assert!((r.avg_delay_secs().unwrap() - 19.0).abs() < 1e-9);
    }

    #[test]
    fn packet_created_mid_window_rides_it() {
        // The window opens at 10 and closes at 30; the packet is created at
        // 20 — inside the window — and still crosses, because durative
        // windows are driven at close.
        let sim = Simulation::new(
            config(2),
            Schedule::new(vec![ContactWindow::new(
                Time::from_secs(10),
                Time::from_secs(30),
                NodeId(0),
                NodeId(1),
                1024,
            )]),
            Workload::new(vec![spec(20, 0, 1, 1024)]),
        );
        let r = sim.run(&mut Flood);
        assert_eq!(r.delivered(), 1);
        assert!((r.avg_delay_secs().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn node_down_interrupts_window_with_partial_accrual() {
        // Window 10..20 s at 100 B/s, but node 1 dies at 15 s: only 500 B
        // accrued, so the 800 B packet cannot cross.
        let sim = Simulation::new(
            config(2),
            Schedule::new(vec![ContactWindow::new(
                Time::from_secs(10),
                Time::from_secs(20),
                NodeId(0),
                NodeId(1),
                100,
            )]),
            Workload::new(vec![spec(1, 0, 1, 800)]),
        )
        .with_churn(vec![NodeEvent {
            time: Time::from_secs(15),
            node: NodeId(1),
            up: false,
        }]);
        let r = sim.run(&mut Flood);
        assert_eq!(r.delivered(), 0);
        assert_eq!(r.offered_bytes, 2 * 500);
        assert_eq!(r.contacts, 1, "the interrupted contact still took place");

        // A smaller packet that fits the accrued 500 B is delivered at the
        // interruption instant.
        let sim = Simulation::new(
            config(2),
            Schedule::new(vec![ContactWindow::new(
                Time::from_secs(10),
                Time::from_secs(20),
                NodeId(0),
                NodeId(1),
                100,
            )]),
            Workload::new(vec![spec(1, 0, 1, 400)]),
        )
        .with_churn(vec![NodeEvent {
            time: Time::from_secs(15),
            node: NodeId(1),
            up: false,
        }]);
        let r = sim.run(&mut Flood);
        assert_eq!(r.delivered(), 1);
        assert!((r.avg_delay_secs().unwrap() - 14.0).abs() < 1e-9);
    }

    #[test]
    fn down_node_suppresses_contacts_and_creations() {
        // Node 1 is down over [5, 15]: the contact at 10 never happens; the
        // packet node 1 creates at 12 is dropped; after it returns, the
        // contact at 20 delivers node 0's packet.
        let sim = Simulation::new(
            config(2),
            Schedule::new(vec![
                Contact::new(Time::from_secs(10), NodeId(0), NodeId(1), 4096),
                Contact::new(Time::from_secs(20), NodeId(0), NodeId(1), 4096),
            ]),
            Workload::new(vec![spec(1, 0, 1, 1024), spec(12, 1, 0, 1024)]),
        )
        .with_churn(vec![
            NodeEvent {
                time: Time::from_secs(5),
                node: NodeId(1),
                up: false,
            },
            NodeEvent {
                time: Time::from_secs(15),
                node: NodeId(1),
                up: true,
            },
        ]);
        let r = sim.run(&mut Flood);
        assert_eq!(r.contacts_suppressed, 1);
        assert_eq!(r.contacts, 1);
        assert_eq!(r.delivered(), 1);
        let entered: Vec<bool> = r.outcomes.iter().map(|o| o.entered_network).collect();
        assert_eq!(entered, vec![true, false]);
    }

    #[test]
    fn durative_window_spanning_measure_from_stays_unmeasured() {
        // Warm-up convention: a window is classified by its *start*. This
        // one opens at 5 s (before measure_from = 10 s) and closes at 20 s
        // (inside the measured span); its bytes must not be counted, while
        // the instantaneous contact at 30 s is.
        let cfg = SimConfig {
            measure_from: Time::from_secs(10),
            ..config(2)
        };
        let sim = Simulation::new(
            cfg,
            Schedule::new(vec![
                ContactWindow::new(
                    Time::from_secs(5),
                    Time::from_secs(20),
                    NodeId(0),
                    NodeId(1),
                    100,
                ),
                ContactWindow::instant(Time::from_secs(30), NodeId(0), NodeId(1), 4096),
            ]),
            Workload::new(vec![spec(1, 0, 1, 1024)]),
        );
        let r = sim.run(&mut Flood);
        assert_eq!(r.contacts, 1);
        assert_eq!(r.offered_bytes, 2 * 4096);
        // The spanning window still delivered (it is driven, just not
        // measured) — delivery happened at its close, 20 s.
        assert_eq!(r.delivered(), 1);
        assert!((r.avg_delay_secs().unwrap() - 19.0).abs() < 1e-9);
        assert_eq!(r.data_bytes, 0, "warm-up bytes excluded from accounting");
    }

    #[test]
    fn ttl_expiry_evicts_replicas_before_later_contacts() {
        // Packet created at 1 s with a 5 s TTL; the only contact is at 10 s:
        // by then the packet has been evicted everywhere.
        let cfg = SimConfig {
            ttl: Some(TimeDelta::from_secs(5)),
            ..config(2)
        };
        let sim = Simulation::new(
            cfg,
            Schedule::new(vec![Contact::new(
                Time::from_secs(10),
                NodeId(0),
                NodeId(1),
                4096,
            )]),
            Workload::new(vec![spec(1, 0, 1, 1024)]),
        );
        let r = sim.run(&mut Flood);
        assert_eq!(r.delivered(), 0);
        assert_eq!(r.expired, 1);
        assert_eq!(r.data_bytes, 0, "expired replica must not cross");
    }

    #[test]
    fn ttl_does_not_touch_delivered_packets() {
        let cfg = SimConfig {
            ttl: Some(TimeDelta::from_secs(50)),
            ..config(2)
        };
        let sim = Simulation::new(
            cfg,
            Schedule::new(vec![Contact::new(
                Time::from_secs(10),
                NodeId(0),
                NodeId(1),
                4096,
            )]),
            Workload::new(vec![spec(1, 0, 1, 1024)]),
        );
        let r = sim.run(&mut Flood);
        assert_eq!(r.delivered(), 1);
        assert_eq!(r.expired, 0);
    }

    #[test]
    fn expiry_at_contact_instant_does_not_ride() {
        // TTL lands exactly on the contact instant: rank(PacketExpired) <
        // rank(ContactStart), so the packet is evicted first.
        let cfg = SimConfig {
            ttl: Some(TimeDelta::from_secs(9)),
            ..config(2)
        };
        let sim = Simulation::new(
            cfg,
            Schedule::new(vec![Contact::new(
                Time::from_secs(10),
                NodeId(0),
                NodeId(1),
                4096,
            )]),
            Workload::new(vec![spec(1, 0, 1, 1024)]),
        );
        let r = sim.run(&mut Flood);
        assert_eq!(r.delivered(), 0);
        assert_eq!(r.expired, 1);
    }

    #[test]
    fn lifecycle_hooks_fire_in_order() {
        #[derive(Default)]
        struct Recorder {
            log: Vec<String>,
        }
        impl Routing for Recorder {
            fn name(&self) -> String {
                "recorder".into()
            }
            fn on_contact(&mut self, driver: &mut ContactDriver<'_>) {
                self.log
                    .push(format!("contact@{}", driver.now().0 / 1_000_000));
            }
            fn on_contact_end(&mut self, _a: NodeId, _b: NodeId, now: Time, interrupted: bool) {
                self.log
                    .push(format!("end@{}:{}", now.0 / 1_000_000, interrupted));
            }
            fn on_packet_created(&mut self, packet: &Packet) {
                self.log.push(format!("created:{}", packet.id));
            }
            fn on_packet_expired(&mut self, packet: &Packet) {
                self.log.push(format!("expired:{}", packet.id));
            }
            fn on_node_down(&mut self, node: NodeId, now: Time) {
                self.log.push(format!("down:{node}@{}", now.0 / 1_000_000));
            }
            fn on_node_up(&mut self, node: NodeId, now: Time) {
                self.log.push(format!("up:{node}@{}", now.0 / 1_000_000));
            }
        }
        let cfg = SimConfig {
            ttl: Some(TimeDelta::from_secs(30)),
            ..config(3)
        };
        let sim = Simulation::new(
            cfg,
            Schedule::new(vec![ContactWindow::new(
                Time::from_secs(10),
                Time::from_secs(40),
                NodeId(0),
                NodeId(1),
                100,
            )]),
            Workload::new(vec![spec(1, 0, 2, 50)]),
        )
        .with_churn(vec![
            NodeEvent {
                time: Time::from_secs(20),
                node: NodeId(1),
                up: false,
            },
            NodeEvent {
                time: Time::from_secs(25),
                node: NodeId(1),
                up: true,
            },
        ]);
        let mut rec = Recorder::default();
        let _ = sim.run(&mut rec);
        assert_eq!(
            rec.log,
            vec![
                "created:p0",
                "contact@20", // interrupted by node 1 going down
                "end@20:true",
                "down:n1@20",
                "up:n1@25",
                "expired:p0", // TTL at 31 s; the window does not reopen
            ]
        );
    }
}
