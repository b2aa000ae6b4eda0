//! Deterministic run checkpointing: capture, `RSNP1` encoding, and the
//! on-disk checkpoint rotation.
//!
//! A [`Snapshot`] is the complete deterministic state of a run at a
//! *quiescent point* of the event-merge scan ([`crate::scan`]) — the top
//! of its loop, after `Executor::quiesce` drained every shard queue.
//! Captured state:
//!
//! * the pending [`EventQueue`] in drain order,
//! * the world: packet arena columns, per-node buffers (including each
//!   buffer's destination intern order, which is protocol-observable),
//!   delivery stamps and entered flags (holder sets are rebuilt from
//!   buffer membership — they are exactly the replica locations),
//! * the noise RNG cursor ([`rand::rngs::StdRng::state`]),
//! * source positions by *count*: how many windows/packets were pulled,
//!   plus the lookahead item each source has already yielded. Sources are
//!   deterministic generators or files, so a resume re-pulls the same
//!   prefix from a fresh source and asserts the lookahead item matches —
//!   an end-to-end integrity check that the scenario inputs did not
//!   change between save and resume,
//! * report counters accumulated so far,
//! * the routing protocol's name and opaque state
//!   ([`Routing::save_state`], empty for a protocol that keeps none).
//!
//! Restoring a snapshot and running to completion is byte-identical to
//! the uninterrupted run — at any `RAPID_SHARDS`, because the snapshot
//! holds only the serial-order state both runtimes agree on (see
//! `crate::shard` for why shard epochs commute).
//!
//! The [`Checkpointer`] writes rotating `ckpt-<seq>.rsnp` files
//! (tmp-write + rename so a crash mid-write never clobbers the previous
//! good snapshot), keeps the newest `keep`, and [`load_latest`] walks
//! newest→oldest past corrupt files — every skip loudly reported through
//! [`crate::diag`] — so one damaged file degrades to the previous
//! snapshot instead of a dead run.

use crate::contact::ContactWindow;
use crate::driver::ContactLedger;
use crate::event::{EventQueue, SimEvent};
use crate::fault::{corrupt_file, FaultPlan};
use crate::ids::IndexSet;
use crate::report::SimReport;
use crate::routing::{PacketStore, Routing, SimConfig};
use crate::scan::PendingDrive;
use crate::time::{Time, TimeDelta};
use crate::types::{NodeId, PacketId};
use crate::workload::PacketSpec;
use crate::NodeBuffer;
use dtn_trace::{write_varint, ByteCursor, SnapshotReader, SnapshotWriter, WireError};
use std::path::{Path, PathBuf};

/// One packet's arena row (the SoA columns of [`PacketStore`], by value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRow {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Size in bytes.
    pub size_bytes: u64,
    /// Creation instant.
    pub created_at: Time,
    /// Expiry instant, or [`PacketStore::NO_TTL`].
    pub ttl_deadline: Time,
}

/// One node buffer's contents: the destination intern order (observable
/// through [`NodeBuffer::queues`], so it must survive a round trip) and
/// the stored replicas with their arrival stamps.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BufferSnap {
    /// Destinations in first-seen order, including drained ones.
    pub dsts: Vec<NodeId>,
    /// `(packet, stored_at)` in `PacketId` order.
    pub entries: Vec<(PacketId, Time)>,
}

/// A durative window that was open at capture time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenSnap {
    /// The window's pull-order index.
    pub idx: u64,
    /// The window itself.
    pub window: ContactWindow,
    /// Setup-loss bytes drawn when it opened.
    pub loss: u64,
}

/// The run's scalar report counters (everything in `SimReport` that is
/// accumulated rather than derived at the end): the one accumulator the
/// scan, both executors and every shard add into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    /// Contacts that took place.
    pub contacts: u64,
    /// Contacts lost to noise.
    pub contacts_failed: u64,
    /// Windows suppressed by churn.
    pub contacts_suppressed: u64,
    /// TTL expiries.
    pub expired: u64,
    /// Offered opportunity bytes.
    pub offered_bytes: u64,
    /// Payload bytes moved.
    pub data_bytes: u64,
    /// Control bytes moved.
    pub metadata_bytes: u64,
    /// Replications performed.
    pub replications: u64,
}

impl Counters {
    /// Accounts one driven contact — its offered opportunity and what its
    /// ledger moved — when it falls in the measured span.
    pub(crate) fn add_drive(&mut self, drive: &PendingDrive, ledger: ContactLedger) {
        if drive.measured {
            self.contacts += 1;
            self.offered_bytes += 2 * drive.budget;
            self.data_bytes += ledger.data_bytes;
            self.metadata_bytes += ledger.metadata_bytes;
            self.replications += ledger.replications;
        }
    }

    /// Writes the counters into `report` (end of run).
    pub(crate) fn write_into(self, report: &mut SimReport) {
        report.contacts = self.contacts;
        report.contacts_failed = self.contacts_failed;
        report.contacts_suppressed = self.contacts_suppressed;
        report.expired = self.expired;
        report.offered_bytes = self.offered_bytes;
        report.data_bytes = self.data_bytes;
        report.metadata_bytes = self.metadata_bytes;
        report.replications = self.replications;
    }
}

impl std::ops::AddAssign for Counters {
    fn add_assign(&mut self, other: Self) {
        self.contacts += other.contacts;
        self.contacts_failed += other.contacts_failed;
        self.contacts_suppressed += other.contacts_suppressed;
        self.expired += other.expired;
        self.offered_bytes += other.offered_bytes;
        self.data_bytes += other.data_bytes;
        self.metadata_bytes += other.metadata_bytes;
        self.replications += other.replications;
    }
}

/// The routing protocol's saved state with the protocol name that wrote
/// it (checked on restore, so a Rapid snapshot never silently restores
/// into Epidemic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingState {
    /// [`Routing::name`] of the saving protocol.
    pub name: String,
    /// Opaque [`Routing::save_state`] payload.
    pub bytes: Vec<u8>,
}

/// The complete deterministic state of a run at a quiescent point.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Digest of the behavioral `SimConfig` fields (see [`config_digest`]);
    /// a resume under a different scenario configuration is refused.
    pub config_digest: u64,
    /// The `(time)` of the next event — where the run will resume.
    pub now: Time,
    /// Contact windows fully processed (the engine's `next_window_idx`).
    pub windows_consumed: u64,
    /// Contact sequence counter (drive order / RNG substream basis).
    pub contact_seq: u64,
    /// The contact source's already-pulled lookahead item.
    pub next_window: Option<ContactWindow>,
    /// The workload source's already-pulled lookahead item.
    pub next_packet: Option<PacketSpec>,
    /// Noise RNG cursor.
    pub noise_rng: [u64; 4],
    /// Pending events in drain order.
    pub events: Vec<(Time, SimEvent)>,
    /// Packet arena rows in id order (count doubles as the number of
    /// workload specs consumed).
    pub packets: Vec<PacketRow>,
    /// Per-packet delivery stamps.
    pub delivered_at: Vec<Option<Time>>,
    /// Per-packet entered-the-network flags.
    pub entered: Vec<bool>,
    /// Per-node buffer contents.
    pub buffers: Vec<BufferSnap>,
    /// Per-node availability (churn state).
    pub up: Vec<bool>,
    /// Durative windows open at capture.
    pub open: Vec<OpenSnap>,
    /// Report counters accumulated so far.
    pub counters: Counters,
    /// Routing protocol state. `None` only in snapshots written before
    /// state-free protocols saved a name-only section; restored as empty
    /// state.
    pub routing: Option<RoutingState>,
}

/// FNV-1a over the behavioral `SimConfig` fields — everything that
/// changes results. `intra_jobs` and `lookahead` are excluded: nothing
/// reads them.
pub fn config_digest(config: &SimConfig) -> u64 {
    let mut h = Fnv::new();
    h.u64(config.nodes as u64);
    h.u64(config.buffer_capacity);
    h.u64(config.deadline.map_or(u64::MAX, |d| d.0));
    h.u64(config.horizon.0);
    h.u64(config.ttl.map_or(u64::MAX, |t| t.0));
    h.u64(config.allow_global_knowledge as u64);
    h.u64(config.seed);
    h.u64(config.measure_from.0);
    h.finish()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Whether `routing` can participate in checkpointed runs: it saves its
/// state (empty, for a protocol that keeps none).
pub fn routing_checkpointable(routing: &dyn Routing) -> bool {
    routing.save_state().is_some()
}

/// Panics with a descriptive message if `routing` cannot be checkpointed.
/// Called up front by the hooked runtimes, so a stateful protocol without
/// [`Routing::save_state`] fails loudly at configuration time instead of
/// resuming from silently-wrong state hours later.
pub fn require_checkpointable(routing: &dyn Routing) {
    assert!(
        routing_checkpointable(routing),
        "{} does not implement save_state/load_state; checkpointed runs \
         would resume from wrong state [diag=not-checkpointable proto={}]",
        routing.name(),
        routing.name(),
    );
}

// --- wire encoding ---------------------------------------------------------

fn put_bits(out: &mut Vec<u8>, bits: &[bool]) {
    write_varint(out, bits.len() as u64);
    let mut byte = 0u8;
    for (i, &b) in bits.iter().enumerate() {
        byte |= (b as u8) << (i % 8);
        if i % 8 == 7 {
            out.push(byte);
            byte = 0;
        }
    }
    if !bits.len().is_multiple_of(8) {
        out.push(byte);
    }
}

fn put_window(out: &mut Vec<u8>, w: &ContactWindow) {
    write_varint(out, w.start.0);
    write_varint(out, w.end.0);
    write_varint(out, w.a.0 as u64);
    write_varint(out, w.b.0 as u64);
    write_varint(out, w.bytes_per_sec);
    write_varint(out, w.lump_bytes);
}

/// Section-scoped cursor: every wire error names its section and offset.
struct Section<'a> {
    name: &'static str,
    cur: ByteCursor<'a>,
}

impl<'a> Section<'a> {
    fn new(reader: &SnapshotReader<'a>, name: &'static str) -> Result<Self, String> {
        let payload = reader.require(name).map_err(|e| e.to_string())?;
        Ok(Self {
            name,
            cur: ByteCursor::new(payload),
        })
    }

    fn fail(&self, e: WireError) -> String {
        format!("snapshot section `{}`: {e}", self.name)
    }

    fn varint(&mut self) -> Result<u64, String> {
        self.cur.varint().map_err(|e| self.fail(e))
    }

    fn time(&mut self) -> Result<Time, String> {
        Ok(Time(self.varint()?))
    }

    fn node(&mut self) -> Result<NodeId, String> {
        let v = self.varint()?;
        u32::try_from(v).map(NodeId).map_err(|_| {
            format!(
                "snapshot section `{}`: node id {v} overflows u32",
                self.name
            )
        })
    }

    fn byte(&mut self) -> Result<u8, String> {
        self.cur.byte().map_err(|e| self.fail(e))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        self.cur.take(n).map_err(|e| self.fail(e))
    }

    fn bits(&mut self) -> Result<Vec<bool>, String> {
        let n = self.varint()? as usize;
        let bytes = self.take(n.div_ceil(8))?;
        Ok((0..n).map(|i| bytes[i / 8] >> (i % 8) & 1 == 1).collect())
    }

    fn window(&mut self) -> Result<ContactWindow, String> {
        let (start, end) = (self.time()?, self.time()?);
        let (a, b) = (self.node()?, self.node()?);
        let (bytes_per_sec, lump_bytes) = (self.varint()?, self.varint()?);
        Ok(ContactWindow {
            start,
            end,
            a,
            b,
            bytes_per_sec,
            lump_bytes,
        })
    }

    fn done(self) -> Result<(), String> {
        if self.cur.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "snapshot section `{}`: {} trailing bytes at offset {}",
                self.name,
                self.cur.remaining(),
                self.cur.offset()
            ))
        }
    }
}

impl Snapshot {
    /// Serializes into the `RSNP1` container.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();

        let mut meta = Vec::new();
        write_varint(&mut meta, self.config_digest);
        write_varint(&mut meta, self.now.0);
        write_varint(&mut meta, self.windows_consumed);
        write_varint(&mut meta, self.contact_seq);
        meta.push(self.next_window.is_some() as u8);
        if let Some(win) = &self.next_window {
            put_window(&mut meta, win);
        }
        meta.push(self.next_packet.is_some() as u8);
        if let Some(s) = &self.next_packet {
            write_varint(&mut meta, s.time.0);
            write_varint(&mut meta, s.src.0 as u64);
            write_varint(&mut meta, s.dst.0 as u64);
            write_varint(&mut meta, s.size_bytes);
        }
        w.section("meta", &meta);

        let mut rng = Vec::with_capacity(32);
        for word in self.noise_rng {
            rng.extend_from_slice(&word.to_le_bytes());
        }
        w.section("rng", &rng);

        let mut queue = Vec::new();
        write_varint(&mut queue, self.events.len() as u64);
        for (t, ev) in &self.events {
            write_varint(&mut queue, t.0);
            let (tag, arg) = match ev {
                SimEvent::NodeUp(n) => (0u8, n.0 as u64),
                SimEvent::PacketExpired(p) => (1, p.0 as u64),
                SimEvent::ContactEnd(i) => (2, *i as u64),
                SimEvent::ContactStart(i) => (3, *i as u64),
                SimEvent::PacketCreated(i) => (4, *i as u64),
                SimEvent::NodeDown(n) => (5, n.0 as u64),
            };
            queue.push(tag);
            write_varint(&mut queue, arg);
        }
        w.section("queue", &queue);

        let mut packets = Vec::new();
        write_varint(&mut packets, self.packets.len() as u64);
        for p in &self.packets {
            write_varint(&mut packets, p.src.0 as u64);
            write_varint(&mut packets, p.dst.0 as u64);
            write_varint(&mut packets, p.size_bytes);
            write_varint(&mut packets, p.created_at.0);
            // TTL as an offset from creation, 0 = no TTL: a varint byte or
            // two instead of ten for the NO_TTL sentinel.
            let ttl = if p.ttl_deadline == PacketStore::NO_TTL {
                0
            } else {
                p.ttl_deadline.0 - p.created_at.0 + 1
            };
            write_varint(&mut packets, ttl);
        }
        w.section("packets", &packets);

        let mut status = Vec::new();
        put_bits(&mut status, &self.entered);
        let delivered: Vec<bool> = self.delivered_at.iter().map(|d| d.is_some()).collect();
        put_bits(&mut status, &delivered);
        for t in self.delivered_at.iter().flatten() {
            write_varint(&mut status, t.0);
        }
        w.section("status", &status);

        let mut buffers = Vec::new();
        write_varint(&mut buffers, self.buffers.len() as u64);
        for b in &self.buffers {
            write_varint(&mut buffers, b.dsts.len() as u64);
            for d in &b.dsts {
                write_varint(&mut buffers, d.0 as u64);
            }
            write_varint(&mut buffers, b.entries.len() as u64);
            for (id, stored_at) in &b.entries {
                write_varint(&mut buffers, id.0 as u64);
                write_varint(&mut buffers, stored_at.0);
            }
        }
        w.section("buffers", &buffers);

        let mut avail = Vec::new();
        put_bits(&mut avail, &self.up);
        write_varint(&mut avail, self.open.len() as u64);
        for o in &self.open {
            write_varint(&mut avail, o.idx);
            put_window(&mut avail, &o.window);
            write_varint(&mut avail, o.loss);
        }
        w.section("avail", &avail);

        let mut report = Vec::new();
        let c = &self.counters;
        for v in [
            c.contacts,
            c.contacts_failed,
            c.contacts_suppressed,
            c.expired,
            c.offered_bytes,
            c.data_bytes,
            c.metadata_bytes,
            c.replications,
        ] {
            write_varint(&mut report, v);
        }
        w.section("report", &report);

        if let Some(r) = &self.routing {
            let mut routing = Vec::new();
            write_varint(&mut routing, r.name.len() as u64);
            routing.extend_from_slice(r.name.as_bytes());
            routing.extend_from_slice(&r.bytes);
            w.section("routing", &routing);
        }

        w.finish()
    }

    /// Decodes an `RSNP1` snapshot; every failure mode (bad magic,
    /// truncation, checksum, malformed section) yields a descriptive
    /// error naming the section and offset.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        let reader = SnapshotReader::new(bytes).map_err(|e| e.to_string())?;

        let mut meta = Section::new(&reader, "meta")?;
        let config_digest = meta.varint()?;
        let now = meta.time()?;
        let windows_consumed = meta.varint()?;
        let contact_seq = meta.varint()?;
        let next_window = match meta.byte()? {
            0 => None,
            _ => Some(meta.window()?),
        };
        let next_packet = match meta.byte()? {
            0 => None,
            _ => Some(PacketSpec {
                time: meta.time()?,
                src: meta.node()?,
                dst: meta.node()?,
                size_bytes: meta.varint()?,
            }),
        };
        meta.done()?;

        let mut rng = Section::new(&reader, "rng")?;
        let words = rng.take(32)?;
        let mut noise_rng = [0u64; 4];
        for (i, chunk) in words.chunks_exact(8).enumerate() {
            noise_rng[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        rng.done()?;

        let mut queue = Section::new(&reader, "queue")?;
        let n_events = queue.varint()? as usize;
        let mut events = Vec::with_capacity(n_events.min(1 << 20));
        for _ in 0..n_events {
            let t = queue.time()?;
            let tag = queue.byte()?;
            let arg = queue.varint()?;
            let id32 = |v: u64| -> Result<u32, String> {
                u32::try_from(v).map_err(|_| format!("snapshot section `queue`: id {v} overflows"))
            };
            let ev = match tag {
                0 => SimEvent::NodeUp(NodeId(id32(arg)?)),
                1 => SimEvent::PacketExpired(PacketId(id32(arg)?)),
                2 => SimEvent::ContactEnd(arg as usize),
                3 => SimEvent::ContactStart(arg as usize),
                4 => SimEvent::PacketCreated(arg as usize),
                5 => SimEvent::NodeDown(NodeId(id32(arg)?)),
                other => {
                    return Err(format!(
                        "snapshot section `queue`: unknown event tag {other}"
                    ))
                }
            };
            events.push((t, ev));
        }
        queue.done()?;

        let mut pk = Section::new(&reader, "packets")?;
        let n_packets = pk.varint()? as usize;
        let mut packets = Vec::with_capacity(n_packets.min(1 << 20));
        for _ in 0..n_packets {
            let src = pk.node()?;
            let dst = pk.node()?;
            let size_bytes = pk.varint()?;
            let created_at = pk.time()?;
            let ttl = pk.varint()?;
            let ttl_deadline = if ttl == 0 {
                PacketStore::NO_TTL
            } else {
                Time(created_at.0 + ttl - 1)
            };
            packets.push(PacketRow {
                src,
                dst,
                size_bytes,
                created_at,
                ttl_deadline,
            });
        }
        pk.done()?;

        let mut status = Section::new(&reader, "status")?;
        let entered = status.bits()?;
        let delivered = status.bits()?;
        if entered.len() != packets.len() || delivered.len() != packets.len() {
            return Err(format!(
                "snapshot section `status`: {} entered / {} delivered flags for {} packets",
                entered.len(),
                delivered.len(),
                packets.len()
            ));
        }
        let mut delivered_at = Vec::with_capacity(delivered.len());
        for d in delivered {
            delivered_at.push(if d { Some(status.time()?) } else { None });
        }
        status.done()?;

        let mut bufs = Section::new(&reader, "buffers")?;
        let n_buffers = bufs.varint()? as usize;
        let mut buffers = Vec::with_capacity(n_buffers.min(1 << 20));
        for _ in 0..n_buffers {
            let n_dsts = bufs.varint()? as usize;
            let mut dsts = Vec::with_capacity(n_dsts.min(1 << 16));
            for _ in 0..n_dsts {
                dsts.push(bufs.node()?);
            }
            let n_entries = bufs.varint()? as usize;
            let mut entries = Vec::with_capacity(n_entries.min(1 << 16));
            for _ in 0..n_entries {
                let id = bufs.varint()?;
                let id = u32::try_from(id)
                    .map_err(|_| format!("snapshot section `buffers`: packet id {id} overflows"))?;
                entries.push((PacketId(id), bufs.time()?));
            }
            buffers.push(BufferSnap { dsts, entries });
        }
        bufs.done()?;

        let mut avail = Section::new(&reader, "avail")?;
        let up = avail.bits()?;
        let n_open = avail.varint()? as usize;
        let mut open = Vec::with_capacity(n_open.min(1 << 16));
        for _ in 0..n_open {
            let idx = avail.varint()?;
            let window = avail.window()?;
            let loss = avail.varint()?;
            open.push(OpenSnap { idx, window, loss });
        }
        avail.done()?;

        let mut rep = Section::new(&reader, "report")?;
        let counters = Counters {
            contacts: rep.varint()?,
            contacts_failed: rep.varint()?,
            contacts_suppressed: rep.varint()?,
            expired: rep.varint()?,
            offered_bytes: rep.varint()?,
            data_bytes: rep.varint()?,
            metadata_bytes: rep.varint()?,
            replications: rep.varint()?,
        };
        rep.done()?;

        let routing = match reader.section("routing") {
            None => None,
            Some(payload) => {
                let mut cur = ByteCursor::new(payload);
                let fail = |e: WireError| format!("snapshot section `routing`: {e}");
                let name_len = cur.varint().map_err(fail)? as usize;
                let name = std::str::from_utf8(cur.take(name_len).map_err(fail)?)
                    .map_err(|_| "snapshot section `routing`: non-UTF-8 protocol name".to_string())?
                    .to_string();
                let bytes = cur.take(cur.remaining()).map_err(fail)?.to_vec();
                Some(RoutingState { name, bytes })
            }
        };

        Ok(Self {
            config_digest,
            now,
            windows_consumed,
            contact_seq,
            next_window,
            next_packet,
            noise_rng,
            events,
            packets,
            delivered_at,
            entered,
            buffers,
            up,
            open,
            counters,
            routing,
        })
    }

    /// Rebuilds the packet arena from the captured rows.
    pub(crate) fn restore_store(&self) -> PacketStore {
        let mut store = PacketStore::default();
        for p in &self.packets {
            store.push(p.src, p.dst, p.size_bytes, p.created_at, p.ttl_deadline);
        }
        store
    }

    /// Rebuilds every node buffer and the holder table. Holder sets are
    /// exactly the replica locations, so they are derived from buffer
    /// membership rather than stored.
    pub(crate) fn restore_buffers(
        &self,
        capacity: u64,
        store: &PacketStore,
    ) -> (Vec<NodeBuffer>, Vec<IndexSet>) {
        let mut holders: Vec<IndexSet> = (0..store.len()).map(|_| IndexSet::new()).collect();
        let buffers = self
            .buffers
            .iter()
            .enumerate()
            .map(|(node, snap)| {
                let mut buf = NodeBuffer::new(capacity);
                buf.restore_interned_dsts(&snap.dsts);
                for &(id, stored_at) in &snap.entries {
                    let inserted = buf.insert(&store.get(id), stored_at);
                    assert!(inserted, "snapshot replica set exceeds buffer capacity");
                    holders[id.index()].insert(node);
                }
                buf
            })
            .collect();
        (buffers, holders)
    }

    /// Captures buffer contents (the inverse of [`Snapshot::restore_buffers`]).
    pub(crate) fn capture_buffers(buffers: &[NodeBuffer]) -> Vec<BufferSnap> {
        buffers
            .iter()
            .map(|b| BufferSnap {
                dsts: b.interned_dsts().to_vec(),
                entries: b.iter().map(|(id, meta)| (id, meta.stored_at)).collect(),
            })
            .collect()
    }

    /// Captures the packet arena (the inverse of [`Snapshot::restore_store`]).
    pub(crate) fn capture_store(store: &PacketStore) -> Vec<PacketRow> {
        store
            .iter()
            .map(|p| PacketRow {
                src: p.src,
                dst: p.dst,
                size_bytes: p.size_bytes,
                created_at: p.created_at,
                ttl_deadline: store.ttl_deadline(p.id).unwrap_or(PacketStore::NO_TTL),
            })
            .collect()
    }

    /// Rebuilds the event queue in the captured drain order.
    pub(crate) fn restore_queue(&self) -> EventQueue {
        EventQueue::from_events(self.events.iter().copied())
    }
}

// --- hooks & rotation ------------------------------------------------------

/// Optional crash-safety hooks threaded through the hooked run entry
/// points ([`crate::engine::run_streaming_hooked`],
/// [`crate::shard::run_sharded_hooked`]). The default is a plain run: no
/// checkpoints, no resume, no faults.
#[derive(Default)]
pub struct RunHooks<'a> {
    /// Write rotating checkpoints during the run.
    pub checkpoint: Option<&'a mut Checkpointer>,
    /// Resume from this snapshot instead of starting fresh.
    pub resume: Option<Snapshot>,
    /// Inject faults from this plan.
    pub faults: Option<&'a mut FaultPlan>,
}

/// Writes rotating, sequence-numbered `RSNP1` checkpoint files at a fixed
/// simulated-time interval.
#[derive(Debug)]
pub struct Checkpointer {
    dir: PathBuf,
    every: TimeDelta,
    keep: usize,
    next_due: Time,
    seq: u64,
}

/// Filename for checkpoint `seq` (zero-padded so lexicographic order is
/// sequence order).
fn checkpoint_name(seq: u64) -> String {
    format!("ckpt-{seq:010}.rsnp")
}

/// Parses a checkpoint sequence number back out of a directory entry.
fn checkpoint_seq(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?
        .strip_suffix(".rsnp")?
        .parse()
        .ok()
}

impl Checkpointer {
    /// A checkpointer writing into `dir` (created if absent) every
    /// `every` of simulated time, keeping the newest `keep` files.
    /// Sequence numbers continue past any checkpoints already in `dir`,
    /// so a resumed run never overwrites the file it resumed from.
    pub fn new(dir: impl Into<PathBuf>, every: TimeDelta, keep: usize) -> std::io::Result<Self> {
        assert!(
            every > TimeDelta::ZERO,
            "checkpoint interval must be positive"
        );
        assert!(keep >= 1, "must keep at least one checkpoint");
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let seq = list_checkpoints(&dir)?
            .last()
            .and_then(|p| checkpoint_seq(&p.file_name().unwrap_or_default().to_string_lossy()))
            .map_or(0, |s| s + 1);
        Ok(Self {
            dir,
            every,
            keep,
            next_due: Time::ZERO + every,
            seq,
        })
    }

    /// The directory checkpoints are written into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether a checkpoint is due at simulated time `now`.
    pub fn due(&self, now: Time) -> bool {
        now >= self.next_due
    }

    /// Advances the schedule past `now` without saving — called on resume
    /// so the first event after restore does not immediately re-save the
    /// state just loaded.
    pub fn align(&mut self, now: Time) {
        while self.next_due <= now {
            self.next_due += self.every;
        }
    }

    /// Writes `snapshot` (tmp-write + rename), applies any injected
    /// corruption targeting this sequence number, prunes old files, and
    /// advances the schedule past `snapshot.now`.
    pub fn save(
        &mut self,
        snapshot: &Snapshot,
        faults: Option<&FaultPlan>,
    ) -> std::io::Result<PathBuf> {
        let seq = self.seq;
        self.seq += 1;
        self.align(snapshot.now);

        let path = self.dir.join(checkpoint_name(seq));
        let tmp = self.dir.join(format!("ckpt-{seq:010}.tmp"));
        std::fs::write(&tmp, snapshot.encode())?;
        std::fs::rename(&tmp, &path)?;

        if let Some(mode) = faults.and_then(|f| f.corruption_for(seq)) {
            corrupt_file(&path, mode)?;
            crate::diag::warn(
                "fault-corrupt-snapshot",
                "injected corruption into checkpoint just written",
                &[
                    ("path", path.display().to_string()),
                    ("seq", seq.to_string()),
                    ("mode", format!("{mode:?}")),
                ],
            );
        }

        // Prune: keep the newest `keep` checkpoints.
        let all = list_checkpoints(&self.dir)?;
        if all.len() > self.keep {
            for old in &all[..all.len() - self.keep] {
                let _ = std::fs::remove_file(old);
            }
        }
        Ok(path)
    }
}

/// All checkpoint files in `dir`, oldest first.
fn list_checkpoints(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .map(|n| checkpoint_seq(&n.to_string_lossy()).is_some())
                .unwrap_or(false)
        })
        .collect();
    files.sort();
    Ok(files)
}

/// A successfully loaded latest-good snapshot, with the corrupt newer
/// files that were skipped to reach it.
#[derive(Debug)]
pub struct LoadedSnapshot {
    /// The file the snapshot came from.
    pub path: PathBuf,
    /// The decoded snapshot.
    pub snapshot: Snapshot,
    /// Newer files that failed to decode, with their errors (also warned
    /// through [`crate::diag`]).
    pub skipped: Vec<(PathBuf, String)>,
}

/// Loads the newest decodable snapshot from `dir`, walking newest→oldest
/// past corrupt files. Every skipped file is reported via
/// [`crate::diag::warn`] with `diag=snapshot-skipped`. Returns `Ok(None)`
/// when the directory holds no loadable checkpoint at all.
pub fn load_latest(dir: &Path) -> std::io::Result<Option<LoadedSnapshot>> {
    let mut skipped = Vec::new();
    for path in list_checkpoints(dir)?.into_iter().rev() {
        match std::fs::read(&path)
            .map_err(|e| e.to_string())
            .and_then(|b| Snapshot::decode(&b))
        {
            Ok(snapshot) => {
                return Ok(Some(LoadedSnapshot {
                    path,
                    snapshot,
                    skipped,
                }))
            }
            Err(err) => {
                crate::diag::warn(
                    "snapshot-skipped",
                    "checkpoint failed to load; falling back to the previous one",
                    &[
                        ("path", path.display().to_string()),
                        ("error", format!("{err:?}")),
                    ],
                );
                skipped.push((path, err));
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{CorruptMode, Fault};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rapid-ckpt-test-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            config_digest: 0xDEAD_BEEF,
            now: Time::from_secs(120),
            windows_consumed: 42,
            contact_seq: 17,
            next_window: Some(ContactWindow::new(
                Time::from_secs(130),
                Time::from_secs(140),
                NodeId(3),
                NodeId(4),
                64,
            )),
            next_packet: Some(PacketSpec {
                time: Time::from_secs(125),
                src: NodeId(1),
                dst: NodeId(2),
                size_bytes: 512,
            }),
            noise_rng: [1, 2, 3, u64::MAX],
            events: vec![
                (Time::from_secs(121), SimEvent::PacketExpired(PacketId(0))),
                (Time::from_secs(122), SimEvent::ContactEnd(9)),
                (Time::from_secs(123), SimEvent::NodeDown(NodeId(5))),
                (Time::from_secs(124), SimEvent::NodeUp(NodeId(5))),
            ],
            packets: vec![
                PacketRow {
                    src: NodeId(0),
                    dst: NodeId(1),
                    size_bytes: 1024,
                    created_at: Time::from_secs(10),
                    ttl_deadline: Time::from_secs(70),
                },
                PacketRow {
                    src: NodeId(2),
                    dst: NodeId(0),
                    size_bytes: 2048,
                    created_at: Time::from_secs(20),
                    ttl_deadline: PacketStore::NO_TTL,
                },
            ],
            delivered_at: vec![Some(Time::from_secs(55)), None],
            entered: vec![true, true],
            buffers: vec![
                BufferSnap {
                    dsts: vec![NodeId(1), NodeId(0)],
                    entries: vec![(PacketId(1), Time::from_secs(21))],
                },
                BufferSnap::default(),
            ],
            up: vec![true, false, true],
            open: vec![OpenSnap {
                idx: 40,
                window: ContactWindow::new(
                    Time::from_secs(119),
                    Time::from_secs(150),
                    NodeId(0),
                    NodeId(2),
                    100,
                ),
                loss: 7,
            }],
            counters: Counters {
                contacts: 10,
                contacts_failed: 1,
                contacts_suppressed: 2,
                expired: 3,
                offered_bytes: 4096,
                data_bytes: 2048,
                metadata_bytes: 99,
                replications: 5,
            },
            routing: Some(RoutingState {
                name: "rapid".into(),
                bytes: vec![9, 8, 7],
            }),
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = sample_snapshot();
        let bytes = snap.encode();
        let back = Snapshot::decode(&bytes).expect("decodes");
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_without_routing_round_trips() {
        let mut snap = sample_snapshot();
        snap.routing = None;
        let back = Snapshot::decode(&snap.encode()).expect("decodes");
        assert_eq!(back, snap);
    }

    #[test]
    fn every_corruption_is_detected_or_decodes_equal() {
        // Bit flips anywhere must either fail to decode (CRC) — they can
        // never decode into a *different* snapshot.
        let snap = sample_snapshot();
        let bytes = snap.encode();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x20;
            assert!(
                Snapshot::decode(&corrupt).is_err(),
                "flip at byte {i} went undetected"
            );
        }
        for len in 0..bytes.len() {
            assert!(
                Snapshot::decode(&bytes[..len]).is_err(),
                "truncation to {len} went undetected"
            );
        }
    }

    #[test]
    fn config_digest_tracks_behavioral_fields_only() {
        let base = SimConfig {
            nodes: 10,
            seed: 7,
            ..SimConfig::default()
        };
        let same = SimConfig {
            intra_jobs: 8,
            ..base.clone()
        };
        assert_eq!(
            config_digest(&base),
            config_digest(&same),
            "intra_jobs must not change the digest"
        );
        let different = SimConfig {
            seed: 8,
            ..base.clone()
        };
        assert_ne!(config_digest(&base), config_digest(&different));
    }

    #[test]
    fn checkpointer_rotates_and_load_latest_returns_newest() {
        let dir = temp_dir("rotate");
        let mut ckpt = Checkpointer::new(&dir, TimeDelta::from_secs(10), 2).unwrap();
        assert!(!ckpt.due(Time::from_secs(9)));
        assert!(ckpt.due(Time::from_secs(10)));

        for secs in [10u64, 20, 30] {
            let mut snap = sample_snapshot();
            snap.now = Time::from_secs(secs);
            snap.contact_seq = secs;
            ckpt.save(&snap, None).unwrap();
            assert!(!ckpt.due(snap.now), "save advances the schedule");
        }
        let files = list_checkpoints(&dir).unwrap();
        assert_eq!(files.len(), 2, "keep=2 prunes the oldest");

        let loaded = load_latest(&dir).unwrap().expect("snapshots exist");
        assert_eq!(loaded.snapshot.now, Time::from_secs(30));
        assert!(loaded.skipped.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous() {
        let dir = temp_dir("fallback");
        let mut ckpt = Checkpointer::new(&dir, TimeDelta::from_secs(10), 3).unwrap();
        let mut good = sample_snapshot();
        good.now = Time::from_secs(10);
        ckpt.save(&good, None).unwrap();

        // The second save is corrupted by an injected fault.
        let faults = FaultPlan::scheduled(vec![Fault::CorruptSnapshot {
            seq: 1,
            mode: CorruptMode::BitFlip,
        }]);
        let mut bad = sample_snapshot();
        bad.now = Time::from_secs(20);
        ckpt.save(&bad, Some(&faults)).unwrap();

        let loaded = load_latest(&dir).unwrap().expect("previous survives");
        assert_eq!(loaded.snapshot.now, Time::from_secs(10), "fell back");
        assert_eq!(loaded.skipped.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_newest_falls_back_too() {
        let dir = temp_dir("truncate");
        let mut ckpt = Checkpointer::new(&dir, TimeDelta::from_secs(10), 3).unwrap();
        let mut a = sample_snapshot();
        a.now = Time::from_secs(10);
        ckpt.save(&a, None).unwrap();
        let faults = FaultPlan::scheduled(vec![Fault::CorruptSnapshot {
            seq: 1,
            mode: CorruptMode::Truncate,
        }]);
        let mut b = sample_snapshot();
        b.now = Time::from_secs(20);
        ckpt.save(&b, Some(&faults)).unwrap();
        let loaded = load_latest(&dir).unwrap().expect("previous survives");
        assert_eq!(loaded.snapshot.now, Time::from_secs(10));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_or_all_corrupt_dir_yields_none() {
        let dir = temp_dir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(load_latest(&dir).unwrap().is_none());
        std::fs::write(dir.join(checkpoint_name(0)), b"garbage").unwrap();
        assert!(load_latest(&dir).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sequence_continues_past_existing_checkpoints() {
        let dir = temp_dir("seq");
        let mut first = Checkpointer::new(&dir, TimeDelta::from_secs(10), 5).unwrap();
        let snap = sample_snapshot();
        let p0 = first.save(&snap, None).unwrap();
        let second = Checkpointer::new(&dir, TimeDelta::from_secs(10), 5).unwrap();
        assert_eq!(second.seq, 1, "resumed checkpointer continues the sequence");
        assert!(p0.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
