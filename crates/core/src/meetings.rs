//! Meeting-time estimation for unknown mobility distributions (§4.1.2).
//!
//! "Every node tabulates the average time to meet every other node based on
//! past meeting times. Nodes exchange this table as part of metadata
//! exchanges. A node combines the metadata into a meeting-time adjacency
//! matrix ... E(M_XZ) is estimated as the expected time taken for X to meet
//! Z in at most h hops" (h = 3); pairs unreachable in h hops get infinity.
//!
//! Each node owns *its* row of the matrix (the averages of its own direct
//! meetings) and learns other rows through gossip; rows carry a
//! last-updated stamp and merge by last-writer-wins, so delayed gossip can
//! only ever be stale, never corrupting.
//!
//! # Storage
//!
//! The matrix is stored exactly but sparsely, by what is known. A row
//! holds only its finite cells, as column-sorted parallel `cols` / `vals`
//! vectors; the view keeps its own row, the peers it has met (ascending,
//! with their last-met instants and running averages) and an
//! owner-ascending list of the rows gossip has reported — nothing is
//! allocated per fleet member. "Never observed" is the absence of a cell,
//! read back as `INFINITY`; a row nobody reported reads as empty with
//! stamp `Time::ZERO`. The h-hop relaxation walks only stored cells of
//! reached nodes; an absent cell contributes `dy + INFINITY`, which is
//! never below any distance, so skipping it leaves every surviving update
//! with the same operands in the same order as the dense relaxation
//! ([`expected_meeting_times_from`], kept as the oracle) — the estimates
//! are bit-identical, at O(known meetings) instead of O(n²) per call.

use dtn_sim::{NodeId, Time};
use dtn_stats::RunningMean;
use dtn_trace::{write_varint, ByteCursor};
use std::ops::{Deref, Index};

/// What an absent cell reads as (a `static` so [`RowView`]'s `Index` can
/// hand out a reference to it).
static NEVER_OBSERVED: f64 = f64::INFINITY;

/// One believed row: its owner, when the owner last updated it, and its
/// finite cells in ascending column order.
#[derive(Debug, Clone)]
struct Row {
    owner: u32,
    stamp: Time,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl Row {
    fn new(owner: u32, stamp: Time) -> Self {
        Self {
            owner,
            stamp,
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    fn set(&mut self, col: u32, val: f64) {
        debug_assert!(val.is_finite(), "only finite cells are stored");
        match self.cols.binary_search(&col) {
            Ok(i) => self.vals[i] = val,
            Err(i) => {
                self.cols.insert(i, col);
                self.vals.insert(i, val);
            }
        }
    }

    /// `clone_from` that reuses this row's capacity.
    fn copy_from(&mut self, other: &Row) {
        (self.owner, self.stamp) = (other.owner, other.stamp);
        self.cols.clone_from(&other.cols);
        self.vals.clone_from(&other.vals);
    }

    /// Whether the row carries information: a stamp or a cell.
    fn is_live(&self) -> bool {
        self.stamp != Time::ZERO || !self.cols.is_empty()
    }
}

/// A read-only view of one believed row of an `n`-node matrix. Indexing
/// by column yields the believed mean (seconds), `INFINITY` where nothing
/// was observed — the same reads a dense `&[f64]` row would give.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowView<'a> {
    n: usize,
    cols: &'a [u32],
    vals: &'a [f64],
}

impl<'a> RowView<'a> {
    /// The row's finite cells as `(column, mean)`, ascending by column.
    pub fn cells(&self) -> impl Iterator<Item = (usize, f64)> + 'a {
        let (cols, vals) = (self.cols, self.vals);
        cols.iter().map(|&c| c as usize).zip(vals.iter().copied())
    }
}

impl Index<usize> for RowView<'_> {
    type Output = f64;

    fn index(&self, col: usize) -> &f64 {
        assert!(col < self.n, "column {col} out of range (n={})", self.n);
        match self.cols.binary_search(&(col as u32)) {
            Ok(i) => &self.vals[i],
            Err(_) => &NEVER_OBSERVED,
        }
    }
}

/// Reusable h-hop estimates: dense distances (`est[dst]` is one load;
/// derefs to `&[f64]`) plus the ascending list of the finite ones, through
/// which a refill resets and iterates the buffer — O(reached), not O(n).
#[derive(Debug, Clone, Default)]
pub struct HopEstimates {
    dist: Vec<f64>,
    /// Indices of the finite entries of `dist`, ascending.
    reached: Vec<u32>,
    /// One relaxation round's intermediaries `(node, distance)`, as of the
    /// round's start.
    round: Vec<(u32, f64)>,
}

impl Deref for HopEstimates {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.dist
    }
}

/// One node's view of the fleet-wide meeting-time matrix.
#[derive(Debug, Clone)]
pub struct MeetingView {
    n: usize,
    /// The peers I have met, ascending; `last_met` (to form inter-meeting
    /// gaps) and `avg` (my direct-meeting averages, the ground truth for
    /// `own`) run parallel to it.
    met: Vec<u32>,
    last_met: Vec<Time>,
    avg: Vec<RunningMean>,
    /// My own row: the believed mean time (seconds) to meet each averaged
    /// peer directly.
    own: Row,
    /// Other nodes' rows as gossip reported them, ascending by owner; only
    /// rows that carry information.
    learned: Vec<Row>,
}

impl MeetingView {
    /// Creates an empty view for node `me` in an `n`-node fleet.
    pub fn new(me: NodeId, n: usize) -> Self {
        Self {
            n,
            met: Vec::new(),
            last_met: Vec::new(),
            avg: Vec::new(),
            own: Row::new(me.0, Time::ZERO),
            learned: Vec::new(),
        }
    }

    /// The owner of this view.
    pub fn me(&self) -> NodeId {
        NodeId(self.own.owner)
    }

    /// Records a direct meeting with `peer` at `now`, updating the
    /// inter-meeting average (the first meeting only sets the baseline).
    /// Allocates only on the first two meetings with a peer (the sorted
    /// inserts of the peer and of its first average).
    pub fn record_meeting(&mut self, peer: NodeId, now: Time) {
        assert_ne!(peer, self.me(), "cannot meet self");
        let i = match self.met.binary_search(&peer.0) {
            Ok(i) => {
                let gap = now.since(self.last_met[i]).as_secs_f64();
                self.avg[i].observe(gap);
                self.last_met[i] = now;
                i
            }
            Err(i) => {
                self.met.insert(i, peer.0);
                self.last_met.insert(i, now);
                self.avg.insert(i, RunningMean::new());
                i
            }
        };
        if let Some(mean) = self.avg[i].mean() {
            self.own.set(peer.0, mean);
        }
        self.own.stamp = now;
    }

    /// My believed mean direct inter-meeting time with `peer`, seconds.
    pub fn direct_mean(&self, peer: NodeId) -> f64 {
        self.row(self.me().index())[peer.index()]
    }

    fn learned_at(&self, owner: u32) -> Result<usize, usize> {
        self.learned.binary_search_by_key(&owner, |r| r.owner)
    }

    /// Row `u`, if this view holds it.
    fn held_row(&self, u: u32) -> Option<&Row> {
        if u == self.own.owner {
            return Some(&self.own);
        }
        Some(&self.learned[self.learned_at(u).ok()?])
    }

    /// Every held row, ascending by owner: the learned list with my own
    /// row merged in at its place.
    fn rows_ascending(&self) -> impl Iterator<Item = &Row> {
        let split = self.learned.partition_point(|r| r.owner < self.own.owner);
        let (below, above) = self.learned.split_at(split);
        below.iter().chain([&self.own]).chain(above)
    }

    /// Any believed row (mine is ground truth; others are gossip).
    pub fn row(&self, u: usize) -> RowView<'_> {
        assert!(u < self.n, "row {u} out of range (n={})", self.n);
        let (cols, vals): (&[u32], &[f64]) = match self.held_row(u as u32) {
            Some(row) => (&row.cols, &row.vals),
            None => (&[], &[]),
        };
        RowView {
            n: self.n,
            cols,
            vals,
        }
    }

    /// Rows updated after `since`, for the delta metadata exchange
    /// (§4.2: "only sends information about packets whose information
    /// changed since the last exchange" — same discipline for meeting rows).
    pub fn rows_changed_since(&self, since: Time) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.rows_changed_since_into(since, &mut out);
        out
    }

    /// [`MeetingView::rows_changed_since`] into a reusable buffer (the
    /// per-contact exchange path calls this with scratch storage).
    pub fn rows_changed_since_into(&self, since: Time, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(
            self.rows_ascending()
                .filter(|r| r.stamp > since && !r.cols.is_empty())
                .map(|r| NodeId(r.owner)),
        );
    }

    /// Merges `peer`'s view into mine: last-writer-wins per row, restricted
    /// to `rows` (what the channel actually carried).
    pub fn merge_rows_from(&mut self, other: &MeetingView, rows: &[NodeId]) {
        for &u in rows {
            // Never overwrite my own ground-truth row.
            if u == self.me() {
                continue;
            }
            let Some(theirs) = other.held_row(u.0) else {
                continue;
            };
            match self.learned_at(u.0) {
                Ok(i) if theirs.stamp > self.learned[i].stamp => {
                    self.learned[i].copy_from(theirs);
                }
                // An unreported row reads as stamped `Time::ZERO`.
                Err(i) if theirs.stamp > Time::ZERO => self.learned.insert(i, theirs.clone()),
                _ => {}
            }
        }
    }

    /// Expected time (seconds) for me to meet every destination within
    /// `hop_limit` hops: `h` rounds of relaxation over believed rows
    /// (Bellman–Ford limited to `h` edges). Unreachable ⇒ `INFINITY`
    /// (§4.1.2: "we set the expected inter-meeting time to infinity").
    pub fn expected_meeting_times(&self, hop_limit: usize) -> Vec<f64> {
        let mut est = HopEstimates::default();
        self.expected_from_into(self.me(), hop_limit, &mut est);
        est.dist
    }

    /// [`MeetingView::expected_meeting_times`] evaluated from an arbitrary
    /// start node `from` *through this view's believed rows*, written into
    /// a reusable buffer — the allocation-free form the per-contact hot
    /// path uses (`from == me` for own estimates, `from == peer` for
    /// valuing the peer's position through learned rows). Bit-identical
    /// to [`expected_meeting_times_from`] over the same rows.
    pub fn expected_from_into(&self, from: NodeId, hop_limit: usize, est: &mut HopEstimates) {
        relax_rows_into(self.n, from, hop_limit, |u| self.row(u), est);
    }

    /// Appends this view's checkpoint section: the rows that carry
    /// information (a stamp or any cell) with their cells in ascending
    /// column order, then the own-row running averages and last-met
    /// instants of the peers that have one.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        let live = || self.rows_ascending().filter(|r| r.is_live());
        write_varint(out, live().count() as u64);
        for row in live() {
            write_varint(out, row.owner as u64);
            write_varint(out, row.stamp.0);
            write_varint(out, row.cols.len() as u64);
            for (&c, &v) in row.cols.iter().zip(&row.vals) {
                write_varint(out, c as u64);
                put_f64(out, v);
            }
        }
        let averaged = || {
            self.met
                .iter()
                .zip(&self.avg)
                .filter(|(_, a)| a.count() > 0)
        };
        write_varint(out, averaged().count() as u64);
        for (&p, avg) in averaged() {
            let (mean, count) = avg.state();
            write_varint(out, p as u64);
            put_f64(out, mean);
            write_varint(out, count);
        }
        write_varint(out, self.met.len() as u64);
        for (&p, t) in self.met.iter().zip(&self.last_met) {
            write_varint(out, p as u64);
            write_varint(out, t.0);
        }
    }

    /// Restores a section written by [`MeetingView::encode`] onto this
    /// (freshly constructed) view. Every index is validated against `n`;
    /// a list whose indices are not strictly ascending, a row that holds
    /// a non-finite cell or an average without a last-met instant is
    /// rejected — the sparse form cannot represent it, and a binary search
    /// over it would silently misread.
    pub(crate) fn decode(&mut self, cur: &mut ByteCursor<'_>) -> Result<(), String> {
        let n = self.n;
        let mut prev_row = None;
        for _ in 0..take_varint(cur)? {
            let u = take_ascending(cur, n, &mut prev_row, "meeting row")?;
            let mut row = Row::new(u as u32, Time(take_varint(cur)?));
            let mut prev_col = None;
            for _ in 0..take_varint(cur)? {
                let c = take_ascending(cur, n, &mut prev_col, "column")
                    .map_err(|e| format!("meeting row {u}: {e}"))?;
                let v = take_f64(cur)?;
                if !v.is_finite() {
                    return Err(format!("meeting row {u}: cell {c} is not finite ({v})"));
                }
                row.cols.push(c as u32);
                row.vals.push(v);
            }
            if row.owner == self.own.owner {
                self.own = row;
            } else if row.is_live() {
                self.learned.push(row);
            }
        }
        let mut averaged = Vec::new();
        let mut prev = None;
        for _ in 0..take_varint(cur)? {
            let p = take_ascending(cur, n, &mut prev, "running-mean peer")?;
            let mean = take_f64(cur)?;
            averaged.push((p as u32, RunningMean::from_state(mean, take_varint(cur)?)));
        }
        let mut prev = None;
        for _ in 0..take_varint(cur)? {
            let p = take_ascending(cur, n, &mut prev, "last-met peer")?;
            self.met.push(p as u32);
            self.last_met.push(Time(take_varint(cur)?));
        }
        self.avg.resize(self.met.len(), RunningMean::new());
        for (p, avg) in averaged {
            let i = self
                .met
                .binary_search(&p)
                .map_err(|_| format!("running mean for peer {p} without a last-met instant"))?;
            self.avg[i] = avg;
        }
        Ok(())
    }
}

/// Appends `v` as its 8 little-endian IEEE-754 bytes.
pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Reads a varint through the string-error path the state decoders use.
pub(crate) fn take_varint(cur: &mut ByteCursor<'_>) -> Result<u64, String> {
    cur.varint().map_err(|e| e.to_string())
}

/// Reads what [`put_f64`] wrote.
pub(crate) fn take_f64(cur: &mut ByteCursor<'_>) -> Result<f64, String> {
    let b = cur.take(8).map_err(|e| e.to_string())?;
    Ok(f64::from_bits(u64::from_le_bytes(
        b.try_into().expect("take(8) yields 8 bytes"),
    )))
}

/// Reads a node index and validates it against the fleet size `n`.
pub(crate) fn take_index(cur: &mut ByteCursor<'_>, n: usize) -> Result<usize, String> {
    let p = take_varint(cur)? as usize;
    if p >= n {
        return Err(format!("peer index {p} out of range (n={n})"));
    }
    Ok(p)
}

/// Reads a node index that must exceed the previous one of its list
/// (`prev`, updated): the sorted sparse forms cannot hold an unordered or
/// repeated index, and a binary search over one would misread.
pub(crate) fn take_ascending(
    cur: &mut ByteCursor<'_>,
    n: usize,
    prev: &mut Option<usize>,
    what: &str,
) -> Result<usize, String> {
    let p = take_index(cur, n)?;
    if prev.is_some_and(|prev| prev >= p) {
        return Err(format!("{what} {p} not strictly ascending"));
    }
    *prev = Some(p);
    Ok(p)
}

/// The one h-hop relaxation, over any provider of believed rows (a view's
/// own beliefs in-band; every node's ground-truth row on the instant
/// global channel): `est` receives the expected meeting times from `src`.
/// Only `est`'s previously finite entries are reset and only reached
/// nodes are visited, so a call costs O(cells of reached rows) and, once
/// the buffer has held an `n`-node estimate, allocates nothing.
/// Intermediaries are visited in ascending order and each row's cells in
/// ascending column order — the dense oracle's update order with the
/// `INFINITY` cells, which can never win, left out.
pub(crate) fn relax_rows_into<'a>(
    n: usize,
    src: NodeId,
    hop_limit: usize,
    row_of: impl Fn(usize) -> RowView<'a>,
    est: &mut HopEstimates,
) {
    assert!(hop_limit >= 1, "need at least one hop");
    let HopEstimates {
        dist,
        reached,
        round,
    } = est;
    for z in reached.drain(..) {
        dist[z as usize] = f64::INFINITY;
    }
    dist.resize(n, f64::INFINITY);
    let src = src.index();
    for (z, m) in row_of(src).cells().filter(|&(z, _)| z != src) {
        dist[z] = m;
        reached.push(z as u32);
    }
    dist[src] = 0.0;
    reached.insert(reached.partition_point(|&z| (z as usize) < src), src as u32);
    for _ in 1..hop_limit {
        round.clear();
        round.extend(
            reached
                .iter()
                .filter(|&&y| y as usize != src)
                .map(|&y| (y, dist[y as usize])),
        );
        let known = reached.len();
        for &(y, dy) in round.iter() {
            for (z, m) in row_of(y as usize).cells() {
                if z == src {
                    continue;
                }
                let via = dy + m;
                if via < dist[z] {
                    if dist[z] == f64::INFINITY {
                        reached.push(z as u32);
                    }
                    dist[z] = via;
                }
            }
        }
        if reached.len() > known {
            reached.sort_unstable();
        }
    }
}

/// h-hop expected meeting times from `src` over a dense matrix of believed
/// direct means (`INFINITY` = never observed): the obviously-correct
/// reference the sparse relaxation is tested against bit for bit, and the
/// entry point of the ablation bench on `h`.
pub fn expected_meeting_times_from(rows: &[Vec<f64>], src: NodeId, hop_limit: usize) -> Vec<f64> {
    let n = rows.len();
    assert!(hop_limit >= 1, "need at least one hop");
    let mut dist = rows[src.index()].clone();
    dist[src.index()] = 0.0;
    let mut snapshot = Vec::with_capacity(n);
    for _ in 1..hop_limit {
        snapshot.clear();
        snapshot.extend_from_slice(&dist);
        for (y, &dy) in snapshot.iter().enumerate() {
            if !dy.is_finite() || y == src.index() {
                continue;
            }
            for z in 0..n {
                if z == src.index() {
                    continue;
                }
                let via = dy + rows[y][z];
                if via < dist[z] {
                    dist[z] = via;
                }
            }
        }
    }
    dist[src.index()] = 0.0;
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> Time {
        Time::from_secs(s)
    }

    #[test]
    fn averages_form_from_gaps() {
        let mut v = MeetingView::new(NodeId(0), 3);
        assert!(v.direct_mean(NodeId(1)).is_infinite());
        v.record_meeting(NodeId(1), t(100));
        // One meeting: no gap yet, still unknown.
        assert!(v.direct_mean(NodeId(1)).is_infinite());
        v.record_meeting(NodeId(1), t(160));
        assert!((v.direct_mean(NodeId(1)) - 60.0).abs() < 1e-9);
        v.record_meeting(NodeId(1), t(260));
        assert!((v.direct_mean(NodeId(1)) - 80.0).abs() < 1e-9); // (60+100)/2
    }

    #[test]
    fn transitive_estimate_via_intermediary() {
        // 0 meets 1 every 50 s; 1 meets 2 every 70 s; 0 never meets 2.
        let mut v = MeetingView::new(NodeId(0), 3);
        v.record_meeting(NodeId(1), t(0));
        v.record_meeting(NodeId(1), t(50));
        // Gossip in node 1's row.
        let mut v1 = MeetingView::new(NodeId(1), 3);
        v1.record_meeting(NodeId(2), t(0));
        v1.record_meeting(NodeId(2), t(70));
        v.merge_rows_from(&v1, &[NodeId(1)]);

        let est = v.expected_meeting_times(3);
        assert!((est[1] - 50.0).abs() < 1e-9);
        assert!((est[2] - 120.0).abs() < 1e-9, "0→1→2 = 50 + 70");
        assert_eq!(est[0], 0.0);
    }

    #[test]
    fn hop_limit_bounds_reachability() {
        // Chain 0-1-2-3-4: with h=3, node 4 is 4 hops away → infinity.
        let mut rows = vec![vec![f64::INFINITY; 5]; 5];
        for i in 0..4usize {
            rows[i][i + 1] = 10.0;
            rows[i + 1][i] = 10.0;
        }
        let est3 = expected_meeting_times_from(&rows, NodeId(0), 3);
        assert!((est3[3] - 30.0).abs() < 1e-9);
        assert!(est3[4].is_infinite(), "4 hops exceeds h=3");
        let est4 = expected_meeting_times_from(&rows, NodeId(0), 4);
        assert!((est4[4] - 40.0).abs() < 1e-9);
    }

    #[test]
    fn prefers_direct_when_cheaper() {
        let mut rows = vec![vec![f64::INFINITY; 3]; 3];
        rows[0][2] = 40.0;
        rows[0][1] = 10.0;
        rows[1][2] = 10.0;
        // Two-hop path 0→1→2 costs 20 < direct 40.
        let est = expected_meeting_times_from(&rows, NodeId(0), 3);
        assert!((est[2] - 20.0).abs() < 1e-9);
        // With h=1, only the direct edge counts.
        let est1 = expected_meeting_times_from(&rows, NodeId(0), 1);
        assert!((est1[2] - 40.0).abs() < 1e-9);
    }

    #[test]
    fn merge_is_last_writer_wins_and_protects_own_row() {
        let mut a = MeetingView::new(NodeId(0), 3);
        a.record_meeting(NodeId(1), t(0));
        a.record_meeting(NodeId(1), t(100)); // own row: mean 100

        let mut b = MeetingView::new(NodeId(1), 3);
        b.record_meeting(NodeId(2), t(0));
        b.record_meeting(NodeId(2), t(30));

        // Forge a stale copy of b and a fresh one; fresh must win.
        let stale = b.clone();
        b.record_meeting(NodeId(2), t(500)); // mean now (30 + 470)/2 = 250

        a.merge_rows_from(&b, &[NodeId(1)]);
        assert!((a.row(1)[2] - 250.0).abs() < 1e-9);
        a.merge_rows_from(&stale, &[NodeId(1)]);
        assert!((a.row(1)[2] - 250.0).abs() < 1e-9, "stale must not regress");

        // Merging someone's claim about MY row is ignored, however fresh:
        // node 2 relays a version of row 0 stamped far in my future.
        let mut future_self = a.clone();
        future_self.record_meeting(NodeId(1), t(9999));
        let mut foreign = MeetingView::new(NodeId(2), 3);
        foreign.merge_rows_from(&future_self, &[NodeId(0)]);
        assert!((foreign.row(0)[1] - 100.0).abs() > 1.0);
        a.merge_rows_from(&foreign, &[NodeId(0)]);
        assert!((a.direct_mean(NodeId(1)) - 100.0).abs() < 1e-9);
    }

    /// A checkpoint section holding the given `(row, [(col, val)])` rows
    /// (every stamp 5) and no averages or last-met instants.
    fn section(rows: &[(u64, &[(u64, f64)])]) -> Vec<u8> {
        let mut out = Vec::new();
        write_varint(&mut out, rows.len() as u64);
        for &(u, cells) in rows {
            write_varint(&mut out, u);
            write_varint(&mut out, 5);
            write_varint(&mut out, cells.len() as u64);
            for &(c, v) in cells {
                write_varint(&mut out, c);
                put_f64(&mut out, v);
            }
        }
        write_varint(&mut out, 0);
        write_varint(&mut out, 0);
        out
    }

    fn decode(bytes: &[u8]) -> Result<MeetingView, String> {
        let mut v = MeetingView::new(NodeId(0), 4);
        v.decode(&mut ByteCursor::new(bytes)).map(|()| v)
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut v = MeetingView::new(NodeId(0), 4);
        for (peer, at) in [(3, 10), (1, 20), (3, 70), (1, 50)] {
            v.record_meeting(NodeId(peer), t(at));
        }
        let mut v2 = MeetingView::new(NodeId(2), 4);
        v2.record_meeting(NodeId(1), t(5)); // stamped, no cell yet
        v.merge_rows_from(&v2, &[NodeId(2)]);
        let mut bytes = Vec::new();
        v.encode(&mut bytes);
        let back = decode(&bytes).unwrap();
        for u in 0..4 {
            assert_eq!(back.row(u), v.row(u));
        }
        let mut again = Vec::new();
        back.encode(&mut again);
        assert_eq!(again, bytes);
        assert_eq!(
            back.row(0).cells().collect::<Vec<_>>(),
            [(1, 30.0), (3, 60.0)]
        );
    }

    #[test]
    fn decode_rejects_unordered_columns() {
        assert!(decode(&section(&[(1, &[(0, 7.0), (2, 9.0)])])).is_ok());
        let err = decode(&section(&[(1, &[(2, 9.0), (0, 7.0)])])).unwrap_err();
        assert!(err.contains("not strictly ascending"), "{err}");
    }

    #[test]
    fn decode_rejects_duplicate_columns() {
        let err = decode(&section(&[(1, &[(2, 9.0), (2, 7.0)])])).unwrap_err();
        assert!(err.contains("not strictly ascending"), "{err}");
    }

    #[test]
    fn decode_rejects_non_finite_cells() {
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let err = decode(&section(&[(1, &[(2, bad)])])).unwrap_err();
            assert!(err.contains("not finite"), "{err}");
        }
    }

    #[test]
    fn decode_rejects_repeated_rows() {
        let err = decode(&section(&[(1, &[(2, 9.0)]), (1, &[(3, 4.0)])])).unwrap_err();
        assert!(err.contains("row 1 not strictly ascending"), "{err}");
    }

    #[test]
    fn changed_rows_for_delta_exchange() {
        let mut v = MeetingView::new(NodeId(0), 3);
        v.record_meeting(NodeId(1), t(10));
        v.record_meeting(NodeId(1), t(20));
        assert_eq!(v.rows_changed_since(t(5)), vec![NodeId(0)]);
        assert!(v.rows_changed_since(t(20)).is_empty());
    }
}
