//! Tracing from outside: timing adapters around the engine's three
//! trait-object inputs, and the span arithmetic over what they record.
//!
//! The engine takes its contacts, its packets and its protocol as
//! `ContactSource`, `WorkloadSource` and `Routing` trait objects. Wrapping
//! each in an adapter that reads the clock before and after every call
//! splits a run's wall time into *source* time, *routing* time and the
//! remainder — the engine's own merge loop, event queue, creation-side
//! buffer work, TTL and report — without a line of instrumentation inside
//! the workspace crates. (Splitting routing time further, into the
//! `ContactDriver` and `NodeBuffer` calls the protocol makes, needs spans
//! inside the program: a later change.)
//!
//! A scale pass makes millions of calls, so calls are *counted and summed*
//! per layer; only the first [`SAMPLED_CALLS`] calls of each layer in each
//! run are kept as individual spans, enough to see the shape of a run in
//! the span file without writing gigabytes.

use crate::workloads::Op;
use dtn_sim::buffer::NodeBuffer;
use dtn_sim::source::{ContactSource, WorkloadSource};
use dtn_sim::workload::PacketSpec;
use dtn_sim::{
    ContactConcurrency, ContactDriver, ContactPool, ContactWindow, NodeId, Packet, PacketId,
    PacketStore, Partition, Routing, ShardStats, SimConfig, SimReport, Time, TimeDelta,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Individual call spans kept per layer per run (and per sampled shard
/// epoch); every call beyond them is only counted and summed.
pub const SAMPLED_CALLS: u64 = 32;

/// The boundaries the adapters time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    SourceContacts,
    SourcePackets,
    OnContact,
    MakeRoom,
    OnPacketCreated,
    /// `on_init`, `on_contact_end`, `on_creation_dropped`,
    /// `on_packet_expired`, `on_node_up`, `on_node_down`.
    Lifecycle,
    /// One sharded epoch as the director sees it: the interval it blocks
    /// in `on_shard_epoch` while shard workers drain their queues.
    ShardEpoch,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::SourceContacts,
        Layer::SourcePackets,
        Layer::OnContact,
        Layer::MakeRoom,
        Layer::OnPacketCreated,
        Layer::Lifecycle,
        Layer::ShardEpoch,
    ];

    /// Routing-trait layers (everything the protocol executes).
    pub const ROUTING: [Layer; 4] = [
        Layer::OnContact,
        Layer::MakeRoom,
        Layer::OnPacketCreated,
        Layer::Lifecycle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::SourceContacts => "source.contacts",
            Layer::SourcePackets => "source.packets",
            Layer::OnContact => "routing.on_contact",
            Layer::MakeRoom => "routing.make_room",
            Layer::OnPacketCreated => "routing.on_packet_created",
            Layer::Lifecycle => "routing.lifecycle",
            Layer::ShardEpoch => "routing.shard_epoch",
        }
    }
}

/// One sampled call.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The shard worker the call ran on; `None` = the engine's own thread.
    pub shard: Option<usize>,
}

/// Calls counted and busy time summed per layer, plus the sampled spans.
#[derive(Debug, Clone)]
pub struct CallLog {
    calls: [u64; Layer::ALL.len()],
    busy_ns: [u64; Layer::ALL.len()],
    pub samples: Vec<Sample>,
    shard: Option<usize>,
    sampling: bool,
}

impl CallLog {
    pub fn new(shard: Option<usize>, sampling: bool) -> Self {
        Self {
            calls: [0; Layer::ALL.len()],
            busy_ns: [0; Layer::ALL.len()],
            samples: Vec::new(),
            shard,
            sampling,
        }
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    pub fn busy_ns(&self, layer: Layer) -> u64 {
        self.busy_ns[layer as usize]
    }

    pub fn busy_s(&self, layer: Layer) -> f64 {
        self.busy_ns(layer) as f64 / 1e9
    }

    fn add(&mut self, layer: Layer, clock: Instant, t0: Instant, t1: Instant, calls: u64) {
        let l = layer as usize;
        self.calls[l] += calls;
        self.busy_ns[l] += (t1 - t0).as_nanos() as u64;
        if self.sampling && self.calls[l] <= SAMPLED_CALLS {
            self.samples.push(Sample {
                layer,
                start_ns: (t0 - clock).as_nanos() as u64,
                end_ns: (t1 - clock).as_nanos() as u64,
                shard: self.shard,
            });
        }
    }

    pub fn merge(&mut self, other: &CallLog) {
        for l in 0..Layer::ALL.len() {
            self.calls[l] += other.calls[l];
            self.busy_ns[l] += other.busy_ns[l];
        }
        self.samples.extend_from_slice(&other.samples);
    }
}

/// Times `$body` as one call of `$layer` on `$self`.
macro_rules! timed {
    ($self:ident, $layer:expr, $body:expr) => {{
        let t0 = Instant::now();
        let out = $body;
        let t1 = Instant::now();
        $self.log.add($layer, $self.clock, t0, t1, 1);
        out
    }};
}

/// A timing adapter around a contact or packet source.
pub struct TracedSource<S> {
    inner: S,
    clock: Instant,
    pub log: CallLog,
}

impl<S> TracedSource<S> {
    pub fn new(inner: S, clock: Instant) -> Self {
        Self {
            inner,
            clock,
            log: CallLog::new(None, true),
        }
    }
}

impl ContactSource for TracedSource<Box<dyn ContactSource + Send>> {
    fn next_window(&mut self) -> Option<ContactWindow> {
        timed!(self, Layer::SourceContacts, self.inner.next_window())
    }
}

impl WorkloadSource for TracedSource<Box<dyn WorkloadSource + Send>> {
    fn next_packet(&mut self) -> Option<PacketSpec> {
        timed!(self, Layer::SourcePackets, self.inner.next_packet())
    }
}

/// Something that is, or lends, a protocol instance: the owned instance
/// the engine drives, or the per-shard view a sharded epoch hands out.
pub trait AsRouting {
    fn routing(&mut self) -> &mut dyn Routing;
    fn routing_ref(&self) -> &dyn Routing;
}

impl AsRouting for Box<dyn Routing + Send> {
    fn routing(&mut self) -> &mut dyn Routing {
        &mut **self
    }
    fn routing_ref(&self) -> &dyn Routing {
        &**self
    }
}

impl<'a> AsRouting for &'a mut (dyn Routing + 'a) {
    fn routing(&mut self) -> &mut dyn Routing {
        &mut **self
    }
    fn routing_ref(&self) -> &dyn Routing {
        &**self
    }
}

/// Where protocol adapters deposit their logs when the engine drops
/// them: calls made on the engine's own thread, and calls made on shard
/// workers. The two are kept apart because worker calls overlap each
/// other in time and must never be subtracted from the engine thread's
/// wall clock.
#[derive(Debug)]
pub struct RoutingLogs {
    pub engine_thread: CallLog,
    pub shard_threads: CallLog,
}

/// A timing adapter around a protocol. Transparent: every hook forwards
/// to the wrapped instance with unchanged arguments and results, so a
/// traced run's report equals the untraced one (tested, serial and
/// sharded). Its log is deposited into `sink` when it is dropped.
pub struct TracedRouting<R: AsRouting> {
    inner: R,
    clock: Instant,
    log: CallLog,
    sink: Arc<Mutex<RoutingLogs>>,
}

impl TracedRouting<Box<dyn Routing + Send>> {
    pub fn new(
        inner: Box<dyn Routing + Send>,
        clock: Instant,
        sink: Arc<Mutex<RoutingLogs>>,
    ) -> Self {
        Self {
            inner,
            clock,
            log: CallLog::new(None, true),
            sink,
        }
    }
}

impl<R: AsRouting> Drop for TracedRouting<R> {
    fn drop(&mut self) {
        // A poisoned sink means another adapter already panicked; the run
        // is failing anyway and `Drop` must not add a second panic.
        if let Ok(mut sink) = self.sink.lock() {
            match self.log.shard {
                None => sink.engine_thread.merge(&self.log),
                Some(_) => sink.shard_threads.merge(&self.log),
            }
        }
    }
}

impl<R: AsRouting> Routing for TracedRouting<R> {
    fn name(&self) -> String {
        self.inner.routing_ref().name()
    }

    fn on_init(&mut self, config: &SimConfig) {
        timed!(self, Layer::Lifecycle, self.inner.routing().on_init(config))
    }

    fn on_packet_created(&mut self, packet: &Packet) {
        timed!(
            self,
            Layer::OnPacketCreated,
            self.inner.routing().on_packet_created(packet)
        )
    }

    fn on_creation_dropped(&mut self, packet: &Packet) {
        timed!(
            self,
            Layer::Lifecycle,
            self.inner.routing().on_creation_dropped(packet)
        )
    }

    fn make_room(
        &mut self,
        node: NodeId,
        incoming: &Packet,
        needed: u64,
        buffer: &NodeBuffer,
        packets: &PacketStore,
        now: Time,
    ) -> Vec<PacketId> {
        timed!(
            self,
            Layer::MakeRoom,
            self.inner
                .routing()
                .make_room(node, incoming, needed, buffer, packets, now)
        )
    }

    fn on_contact(&mut self, driver: &mut ContactDriver<'_>) {
        timed!(
            self,
            Layer::OnContact,
            self.inner.routing().on_contact(driver)
        )
    }

    fn contact_concurrency(&self) -> ContactConcurrency {
        self.inner.routing_ref().contact_concurrency()
    }

    fn on_contact_batch(&mut self, batch: &mut [ContactDriver<'_>], pool: &ContactPool) {
        let t0 = Instant::now();
        self.inner.routing().on_contact_batch(batch, pool);
        let t1 = Instant::now();
        self.log
            .add(Layer::OnContact, self.clock, t0, t1, batch.len() as u64);
    }

    fn on_contact_end(&mut self, a: NodeId, b: NodeId, now: Time, interrupted: bool) {
        timed!(
            self,
            Layer::Lifecycle,
            self.inner.routing().on_contact_end(a, b, now, interrupted)
        )
    }

    /// Forwards the epoch to the wrapped instance, handing each shard a
    /// traced view in place of the bare one, so calls made on shard
    /// workers are counted too (into per-shard logs — they overlap in
    /// time, and must not be subtracted from the director's wall clock).
    fn on_shard_epoch(
        &mut self,
        partition: &Partition,
        pool: &ContactPool,
        drain: &(dyn Fn(usize, &mut dyn Routing) + Sync),
    ) -> bool {
        let clock = self.clock;
        let sink = &self.sink;
        let sampling = self.log.calls(Layer::ShardEpoch) < SAMPLED_CALLS;
        let traced_drain = |shard: usize, view: &mut dyn Routing| {
            let mut traced = TracedRouting {
                inner: view,
                clock,
                log: CallLog::new(Some(shard), sampling),
                sink: Arc::clone(sink),
            };
            drain(shard, &mut traced);
        };
        let t0 = Instant::now();
        let drained = self
            .inner
            .routing()
            .on_shard_epoch(partition, pool, &traced_drain);
        let t1 = Instant::now();
        if drained {
            self.log.add(Layer::ShardEpoch, clock, t0, t1, 1);
        }
        drained
    }

    fn on_packet_expired(&mut self, packet: &Packet) {
        timed!(
            self,
            Layer::Lifecycle,
            self.inner.routing().on_packet_expired(packet)
        )
    }

    fn on_node_up(&mut self, node: NodeId, now: Time) {
        timed!(
            self,
            Layer::Lifecycle,
            self.inner.routing().on_node_up(node, now)
        )
    }

    fn on_node_down(&mut self, node: NodeId, now: Time) {
        timed!(
            self,
            Layer::Lifecycle,
            self.inner.routing().on_node_down(node, now)
        )
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        self.inner.routing_ref().save_state()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.inner.routing().load_state(bytes)
    }
}

/// One operation driven through the adapters.
pub struct TracedRun {
    pub report: SimReport,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls on the engine's own thread: sources, coordinator protocol
    /// calls and (sharded) the epochs the director blocked in.
    pub engine_thread: CallLog,
    /// Calls on shard workers (empty on the serial engine).
    pub shard_threads: CallLog,
    /// `ShardStats` from the director (empty on the serial engine).
    pub shard_stats: Vec<ShardStats>,
}

impl TracedRun {
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Protocol busy time, every thread: the routing layers on the
    /// engine's thread plus the same layers on shard workers.
    pub fn routing_busy_ns(&self) -> u64 {
        Layer::ROUTING
            .iter()
            .map(|&l| self.engine_thread.busy_ns(l) + self.shard_threads.busy_ns(l))
            .sum()
    }

    /// The engine's self time: the run's wall clock minus every traced
    /// call on the engine's own thread (source pulls, coordinator protocol
    /// calls, and whole shard epochs — the workers' calls inside an epoch
    /// overlap each other and are children of the epoch, not of the run).
    pub fn engine_self_ns(&self) -> u64 {
        let children: u64 = Layer::ALL
            .iter()
            .map(|&l| self.engine_thread.busy_ns(l))
            .sum();
        self.wall_ns().saturating_sub(children)
    }
}

/// The engine configuration and measured length `run_spec` derives from
/// an operation (its `spec_config`, which is private to the runner). The
/// transparency tests hold this copy to the original.
pub fn engine_config(op: &Op) -> (SimConfig, TimeDelta) {
    let spec = &op.spec;
    let config = SimConfig {
        nodes: spec.nodes,
        buffer_capacity: spec.buffer,
        deadline: Some(spec.deadline),
        ttl: spec.ttl,
        horizon: spec.horizon,
        allow_global_knowledge: op.proto.needs_global(),
        seed: spec.seed,
        measure_from: spec.measure_from,
        intra_jobs: dtn_sim::intra_jobs_from_env(),
        lookahead: dtn_sim::par::Lookahead::from_env(),
    };
    let measured_len = TimeDelta(spec.horizon.0.saturating_sub(spec.measure_from.0));
    (config, measured_len)
}

/// Runs `op` the way `rapid_bench::runner::run_spec` does — same config,
/// same fresh sources, same protocol build, same even partition when
/// `shards > 1` — but calling the engine directly with every trait object
/// wrapped in a timing adapter.
///
/// Sharding is only traced for single-instance (`NodeDisjoint`) protocols,
/// which is what the workloads shard: a `Stateless` protocol's per-shard
/// instances would be logged as engine-thread calls.
pub fn run_traced(op: &Op, shards: usize, clock: Instant) -> TracedRun {
    let spec = &op.spec;
    let (config, measured_len) = engine_config(op);
    let sink = Arc::new(Mutex::new(RoutingLogs {
        engine_thread: CallLog::new(None, true),
        shard_threads: CallLog::new(None, true),
    }));
    let build = || -> Box<dyn Routing + Send> {
        Box::new(TracedRouting::new(
            op.proto.build(spec.deadline, measured_len),
            clock,
            Arc::clone(&sink),
        ))
    };
    let mut contacts = TracedSource::new(spec.contacts.source(), clock);
    let mut packets = TracedSource::new(spec.packets.source(), clock);
    let shards = dtn_sim::clamp_shards(shards, spec.nodes);

    let start = Instant::now();
    let (report, shard_stats) = if shards > 1 {
        assert!(
            !config.allow_global_knowledge && build().contact_concurrency().is_node_disjoint(),
            "{} cannot shard; the traced run would time a serial fallback",
            op.label
        );
        dtn_sim::run_sharded_with_stats(
            &config,
            &Partition::even(spec.nodes, shards),
            &mut contacts,
            &mut packets,
            &spec.churn,
            spec.noise,
            &mut || build(),
        )
    } else {
        let mut routing = build();
        let report = dtn_sim::run_streaming(
            &config,
            &mut contacts,
            &mut packets,
            &spec.churn,
            spec.noise,
            routing.as_mut(),
        );
        (report, Vec::new())
    };
    let end = Instant::now();

    // The engine has dropped every protocol adapter by now, so the sink
    // is complete; the source adapters are still ours to read.
    let logs = sink.lock().expect("no adapter panicked");
    let mut engine_thread = logs.engine_thread.clone();
    engine_thread.merge(&contacts.log);
    engine_thread.merge(&packets.log);
    TracedRun {
        report,
        start_ns: (start - clock).as_nanos() as u64,
        end_ns: (end - clock).as_nanos() as u64,
        engine_thread,
        shard_threads: logs.shard_threads.clone(),
        shard_stats,
    }
}

/// One span of the written trace: a name, an interval on the trace clock,
/// the span that caused it, and the run (operation) it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: Option<usize>,
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover. Children are clipped to the parent and overlapping
/// children (shard workers under one epoch) are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            run: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = [
            span("pass", 0, 100, None),
            span("setup", 0, 10, Some(0)),
            span("op", 10, 90, Some(0)),
            // Two overlapping workers under the op, one spilling past it.
            span("shard0", 20, 50, Some(2)),
            span("shard1", 40, 95, Some(2)),
            span("leaf", 25, 30, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![10, 10, 10, 25, 55, 5]);
    }

    #[test]
    fn call_log_counts_everything_and_samples_a_prefix() {
        let clock = Instant::now();
        let mut log = CallLog::new(None, true);
        for _ in 0..SAMPLED_CALLS + 10 {
            let t0 = Instant::now();
            log.add(Layer::OnContact, clock, t0, t0, 1);
        }
        assert_eq!(log.calls(Layer::OnContact), SAMPLED_CALLS + 10);
        assert_eq!(log.samples.len() as u64, SAMPLED_CALLS);
        let mut total = CallLog::new(None, true);
        total.merge(&log);
        total.merge(&log);
        assert_eq!(total.calls(Layer::OnContact), 2 * (SAMPLED_CALLS + 10));
        assert_eq!(total.calls(Layer::MakeRoom), 0);
    }
}
