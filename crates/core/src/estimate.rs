//! Estimate Delay — Algorithm 2 of the paper (§4.1, Eqs. 4–9).
//!
//! A node estimating the remaining delivery delay `a(i)` of packet `i`
//! (destination `Z`) reasons per replica:
//!
//! 1. Each holder `n_j` sorts its packets for `Z` in delivery order; let
//!    `b_j(i)` be the bytes queued ahead of `i` (Fig. 1).
//! 2. With `B_j` the expected transfer opportunity between `n_j` and `Z`,
//!    delivering `i` directly takes `n_j(i)` meetings — a gamma-distributed
//!    wait which the paper approximates by an exponential with the same
//!    mean `E(M_{n_j Z}) · n_j(i)` (§4.1.1, because the minimum of gammas
//!    has no closed form).
//! 3. Assuming independence across replicas (Assumption 2), the remaining
//!    delay is the minimum of the per-replica exponentials:
//!    `P(a(i) < t) = 1 − exp(−Σ_j t/a_j)` (Eq. 7) and
//!    `A(i) = (Σ_j 1/a_j)^{-1}` (Eqs. 8–9).
//!
//! One deliberate deviation (EXPERIMENTS.md, "Deviations from the paper"):
//! the paper writes `⌈b_j(i)/B_j⌉` meetings, which is 0 for the
//! head-of-queue packet; we use `⌊b_j(i)/B_j⌋ + 1` so the head packet needs
//! exactly one meeting.
//!
//! # Batched kernels and the deterministic reduction
//!
//! The Eq. 4–5 chain (`meetings_needed` → `replica_delay` → delay cap) is
//! element-wise over a delivery queue once the per-queue constants (the
//! destination's expected meeting time, the believed opportunity size, the
//! cap) are fixed — which is how the protocol consumes it: one row per
//! destination queue. [`RateBatch`] evaluates that chain over a whole row
//! at once from a SoA `bytes_ahead` layout, in fixed-width `f64` chunks.
//! The row and the rate reduction are each one safe body compiled twice —
//! plain, and inside a `#[target_feature(enable = "avx2")]` wrapper picked
//! by runtime feature detection ([`Kernel`]) — so the kernels agree by
//! construction. Every row element is produced by the same IEEE-754
//! operation sequence as the scalar functions, so the rows are **bitwise
//! identical** to per-packet calls on every kernel (property-tested in
//! `tests/properties.rs`).
//!
//! The one order-sensitive quantity is the combined-rate *sum* (Eq. 8).
//! [`combined_rate`] defines its reduction as a fixed [`RATE_LANES`]-stripe
//! accumulation — element `i` adds into stripe `i % RATE_LANES` — closed by
//! a fixed pairwise tree over the stripes ([`reduce_stripes`]). That order
//! is exactly what a chunked vector loop computes, so the hardware lane
//! width (scalar, SSE2, AVX2) can never change the bitwise result; trailing
//! empty stripes hold `+0.0`, which is an exact no-op addend over the
//! non-negative partial sums.

use dtn_sim::buffer::queue_slice;
use dtn_sim::{NodeBuffer, NodeId, NodeInterner, PacketId, QueueEntry, Time};

/// Smallest representable per-replica delay (seconds); guards divisions.
const MIN_DELAY_SECS: f64 = 1e-6;

/// Logical stripe count of the deterministic combined-rate reduction (and
/// the chunk width the batched kernels are laid out for): one AVX2 `f64`
/// register. Fixed — never derived from the runtime vector width — so the
/// reduction order is a property of the algorithm, not the machine.
pub const RATE_LANES: usize = 4;

/// Number of meetings with the destination needed before `i`'s turn:
/// `⌊bytes_ahead / B⌋ + 1`.
pub fn meetings_needed(bytes_ahead: u64, avg_opportunity_bytes: f64) -> f64 {
    let b = avg_opportunity_bytes.max(1.0);
    let q = bytes_ahead as f64 / b;
    // `q` is non-negative and below 2^64 (numerator ≤ u64::MAX, b ≥ 1), so
    // truncation through u64 equals `q.floor()` — without the libm floor
    // call this hot path otherwise pays on baseline x86-64.
    (q as u64) as f64 + 1.0
}

/// Per-replica direct-delivery delay `a_j(i) = E(M_{jZ}) · n_j(i)` seconds.
/// Infinite expected meeting time (unreachable within `h` hops, §4.1.2)
/// yields an infinite delay — the replica contributes nothing.
pub fn replica_delay(expected_meeting_secs: f64, meetings: f64) -> f64 {
    if !expected_meeting_secs.is_finite() {
        return f64::INFINITY;
    }
    (expected_meeting_secs * meetings).max(MIN_DELAY_SECS)
}

/// Combined replica rate `Σ_j 1/a_j` over the per-replica delays — the
/// one expensive quantity behind Eqs. 7–9. Every utility RAPID uses is a
/// cheap closed form over this rate ([`delay_from_rate`],
/// [`prob_within_from_rate`]). Infinite delays (unreachable replicas)
/// contribute nothing. Production folds every belief list through this
/// function; [`RateBatch::combined_rate`] is its batched twin.
///
/// The summation order is the deterministic [`RATE_LANES`]-stripe
/// reduction (module docs): element `j` accumulates into stripe
/// `j % RATE_LANES`, and the stripes close under the fixed tree of
/// [`reduce_stripes`]. The order is a function of element *count* only —
/// never of the execution strategy — so scalar and vectorized evaluations
/// of the same delay list are bitwise identical.
pub fn combined_rate(replica_delays: impl IntoIterator<Item = f64>) -> f64 {
    let mut acc = [0.0f64; RATE_LANES];
    let mut lane = 0;
    for a in replica_delays {
        acc[lane] += rate_contribution(a);
        lane = (lane + 1) % RATE_LANES;
    }
    reduce_stripes(acc)
}

/// Closes the stripe accumulators of the deterministic reduction under a
/// fixed pairwise tree: `(s0 + s1) + (s2 + s3)`. One order, everywhere —
/// the scalar [`combined_rate`] and both instantiations of the batched
/// [`RateBatch::combined_rate`] end here.
#[inline]
pub fn reduce_stripes(acc: [f64; RATE_LANES]) -> f64 {
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// One replica's additive contribution to the combined rate: `1/a` for a
/// finite delay, 0 for an unreachable replica. Selection paths use this to
/// extend an already-reduced rate by one replica (`rate + contribution`);
/// that extension is a scoring formula in its own right, not a claim of
/// bitwise equality with re-folding the full list through the striped
/// [`combined_rate`].
pub fn rate_contribution(a: f64) -> f64 {
    if a.is_finite() {
        1.0 / a.max(MIN_DELAY_SECS)
    } else {
        0.0
    }
}

/// `A(i)` from a combined rate (Eq. 8/9): the mean of the minimum of
/// independent exponentials. Zero rate (no viable replica) is infinite.
pub fn delay_from_rate(rate: f64) -> f64 {
    if rate > 0.0 {
        1.0 / rate
    } else {
        f64::INFINITY
    }
}

/// `P(a(i) < t)` from a combined rate (Eq. 7).
pub fn prob_within_from_rate(rate: f64, t_secs: f64) -> f64 {
    if t_secs <= 0.0 || rate == 0.0 {
        return 0.0;
    }
    1.0 - (-rate * t_secs).exp()
}

/// Combined expected remaining delay `A(i)` over replica delays (Eq. 8/9):
/// the mean of the minimum of independent exponentials with those means.
pub fn expected_remaining_delay(replica_delays: impl IntoIterator<Item = f64>) -> f64 {
    delay_from_rate(combined_rate(replica_delays))
}

/// `P(a(i) < t)` for the combined replicas (Eq. 7).
pub fn prob_delivered_within(replica_delays: impl IntoIterator<Item = f64>, t_secs: f64) -> f64 {
    prob_within_from_rate(combined_rate(replica_delays), t_secs)
}

/// Execution strategy for the batched Eq. 4–9 kernels and the §4.2
/// opportunity-average merge, passed to each call that runs one.
///
/// One body per kernel, compiled twice: `Scalar` runs the plain
/// instantiation (baseline x86-64), `Avx2` the same body inside a
/// `#[target_feature(enable = "avx2")]` wrapper, where the compiler may
/// use wider registers and single-instruction rounding. Agreement is by
/// construction — both run one IEEE-754 operation sequence — so the
/// choice can never change a result bit, only the speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The plain instantiation.
    Scalar,
    /// The AVX2 instantiation (x86-64 with AVX2 only).
    Avx2,
}

impl Kernel {
    /// The best kernel the running CPU supports (AVX2 where detected).
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Kernel::Avx2;
        }
        Kernel::Scalar
    }

    /// Parses a `RAPID_KERNEL` value: `auto` (detect), `scalar`, or
    /// `avx2`. Rejects anything else — and rejects `avx2` on hardware
    /// without it — instead of silently falling back.
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None => Ok(Self::detect()),
            Some("auto") => Ok(Self::detect()),
            Some("scalar") => Ok(Kernel::Scalar),
            Some("avx2") => {
                if Self::detect() == Kernel::Avx2 {
                    Ok(Kernel::Avx2)
                } else {
                    Err("RAPID_KERNEL=avx2 requested but the CPU does not report AVX2".into())
                }
            }
            Some(other) => Err(format!(
                "invalid RAPID_KERNEL value {other:?}: expected auto, scalar, or avx2"
            )),
        }
    }

    /// [`Kernel::parse`] over the `RAPID_KERNEL` environment knob, read
    /// through the workspace's strict knob path (`dtn_sim::env`); invalid
    /// values abort with a clear message rather than silently running a
    /// different kernel.
    pub fn from_env() -> Self {
        dtn_sim::env::from_env_or("RAPID_KERNEL", Self::detect(), |v| Self::parse(Some(v)))
    }

    /// Returns `self`, or panics (`diag=kernel-unsupported`) if the running
    /// CPU cannot execute it. The variants are public, so safe code can
    /// name `Avx2` anywhere: each `Kernel::Avx2` arm calls this right
    /// before its `unsafe` call (a cached feature-bit load), and
    /// [`crate::Rapid::with_kernel`] calls it at construction so a
    /// misconfigured run fails before its first contact.
    pub(crate) fn assert_supported(self) -> Self {
        self.assert_supported_on(Self::detect())
    }

    fn assert_supported_on(self, detected: Kernel) -> Self {
        assert!(
            self == Kernel::Scalar || detected == Kernel::Avx2,
            "Kernel::Avx2 selected but the CPU does not report AVX2 \
             [diag=kernel-unsupported detected={detected:?}]"
        );
        self
    }
}

/// Batched evaluation of the Eq. 4–5 chain over one delivery queue: a SoA
/// `bytes_ahead` row in, a capped own-replica delay row out, with the
/// per-queue constants (expected meeting time, opportunity size, delay
/// cap) broadcast across the row.
///
/// The buffers are reusable scratch — `clear`/`push`/[`RateBatch::compute`]
/// allocate nothing in steady state (the zero-allocation audit covers
/// this). Rows are bitwise identical to calling
/// `replica_delay(e, meetings_needed(b, opp)).min(cap)` per element, on
/// every [`Kernel`]. The batch stores no kernel: each call is handed one.
#[derive(Debug, Clone, Default)]
pub struct RateBatch {
    /// SoA input row: per-packet bytes-ahead, pre-converted to `f64`
    /// (the exact conversion `meetings_needed` performs).
    bytes: Vec<f64>,
    /// Output row: per-packet capped own-replica delay `a_j(i)`.
    delays: Vec<f64>,
}

impl RateBatch {
    /// Drops the input row (keeps capacity).
    pub fn clear(&mut self) {
        self.bytes.clear();
    }

    /// Appends one packet's bytes-ahead to the input row.
    pub fn push(&mut self, bytes_ahead: u64) {
        self.bytes.push(bytes_ahead as f64);
    }

    /// Loads a whole delivery queue's prefix sums as the input row.
    pub fn load_queue(&mut self, queue: &[QueueEntry]) {
        self.bytes.clear();
        self.bytes
            .extend(queue.iter().map(|e| e.bytes_ahead as f64));
    }

    /// Evaluates the fused Eq. 4–5 + cap chain over the loaded row with
    /// `kernel`: `min(max(E · (⌊b/B⌋ + 1), MIN_DELAY), cap)` per element,
    /// with a non-finite `E` behaving exactly like the scalar chain (an
    /// infinite per-replica delay, then capped). Returns the output row.
    ///
    /// # Panics
    /// If `cap_secs` is not positive (NaN included;
    /// `diag=delay-cap-invalid`), or if the CPU cannot execute `kernel`
    /// (`diag=kernel-unsupported`).
    #[allow(unsafe_code)]
    pub fn compute(
        &mut self,
        expected_meeting_secs: f64,
        avg_opportunity_bytes: f64,
        cap_secs: f64,
        kernel: Kernel,
    ) -> &[f64] {
        assert_cap(cap_secs);
        let b = avg_opportunity_bytes.max(1.0);
        // The scalar chain routes any non-finite expected meeting time
        // through `replica_delay`'s infinity arm; folding that into the
        // broadcast constant keeps the row branch-free (NaN would
        // otherwise poison the multiply differently than the scalar path).
        let e = if expected_meeting_secs.is_finite() {
            expected_meeting_secs
        } else {
            f64::INFINITY
        };
        self.delays.clear();
        self.delays.resize(self.bytes.len(), 0.0);
        let (bytes, out) = (self.bytes.as_slice(), self.delays.as_mut_slice());
        match kernel {
            Kernel::Scalar => row(bytes, out, e, b, cap_secs),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => {
                kernel.assert_supported();
                // SAFETY: `assert_supported` returned, so AVX2 was detected.
                unsafe { row_avx2(bytes, out, e, b, cap_secs) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx2 => unreachable!("Avx2 is never selected off x86-64"),
        }
        &self.delays
    }

    /// The output row of the last [`RateBatch::compute`].
    pub fn delays(&self) -> &[f64] {
        &self.delays
    }

    /// The striped combined rate (Eq. 8) of the computed row with
    /// `kernel` — bitwise identical to [`combined_rate`] over the same
    /// delays (`1/∞ = +0.0` is exactly the scalar arm's zero
    /// contribution). Reached only by the `kbench` probe and tests:
    /// production folds belief lists through the free [`combined_rate`].
    ///
    /// # Panics
    /// If the CPU cannot execute `kernel` (`diag=kernel-unsupported`).
    #[allow(unsafe_code)]
    pub fn combined_rate(&self, kernel: Kernel) -> f64 {
        match kernel {
            Kernel::Scalar => rate(&self.delays),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => {
                kernel.assert_supported();
                // SAFETY: `assert_supported` returned, so AVX2 was detected.
                unsafe { rate_avx2(&self.delays) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx2 => unreachable!("Avx2 is never selected off x86-64"),
        }
    }
}

/// Panics (`diag=delay-cap-invalid`) unless the delay cap is positive (a
/// NaN cap fails the compare too). Row elements are then positive and
/// never NaN: the domain on which [`rate`]'s compare-select equals
/// [`rate_contribution`] (a `−∞` element would add `1e6`, not 0).
pub(crate) fn assert_cap(cap_secs: f64) {
    assert!(
        cap_secs > 0.0,
        "the delay cap must be positive [diag=delay-cap-invalid cap={cap_secs}]"
    );
}

/// `x.max(lo)` as one compare-select (`maxsd`); `f64::max`'s NaN rule
/// costs extra instructions per element, and no NaN reaches a row.
#[inline(always)]
fn max_sel(x: f64, lo: f64) -> f64 {
    if x > lo {
        x
    } else {
        lo
    }
}

/// `x.min(hi)` as one compare-select (`minsd`), like [`max_sel`].
#[inline(always)]
fn min_sel(x: f64, hi: f64) -> f64 {
    if hi < x {
        hi
    } else {
        x
    }
}

/// The fused row chain over [`RATE_LANES`]-wide chunks, instantiated once
/// per kernel. `e` is pre-sanitized (finite or `+∞`), `b` is clamped to
/// ≥ 1 and `cap` is positive, so no NaN reaches a compare and each
/// compare-select equals the `f64::max` / `f64::min` of the scalar chain.
#[inline(always)]
fn row(bytes: &[f64], out: &mut [f64], e: f64, b: f64, cap: f64) {
    // `q.trunc()` equals `meetings_needed`'s `(q as u64) as f64` for the
    // whole input range: below 2^53 both are the exact integer part, and
    // from 2^53 every representable f64 is already integral, so the u64
    // round-trip is the identity.
    let elem = |x: f64| min_sel(max_sel(e * ((x / b).trunc() + 1.0), MIN_DELAY_SECS), cap);
    let mut xs = bytes.chunks_exact(RATE_LANES);
    let mut ds = out.chunks_exact_mut(RATE_LANES);
    for (x, d) in (&mut xs).zip(&mut ds) {
        for lane in 0..RATE_LANES {
            d[lane] = elem(x[lane]);
        }
    }
    for (x, d) in xs.remainder().iter().zip(ds.into_remainder()) {
        *d = elem(*x);
    }
}

/// The striped Eq. 8 reduction over a computed row, instantiated once per
/// kernel: element `i` adds into stripe `i % RATE_LANES` (the stripe
/// assignment of [`combined_rate`]) and the stripes close under
/// [`reduce_stripes`]. Every element is positive, never NaN, so
/// `1/max(a, MIN)` equals [`rate_contribution`] — `+0.0` for `a = ∞`.
#[inline(always)]
fn rate(delays: &[f64]) -> f64 {
    let mut acc = [0.0f64; RATE_LANES];
    let chunks = delays.chunks_exact(RATE_LANES);
    let tail = chunks.remainder();
    let elem = |a: f64| 1.0 / max_sel(a, MIN_DELAY_SECS);
    for c in chunks {
        for lane in 0..RATE_LANES {
            acc[lane] += elem(c[lane]);
        }
    }
    for (s, &a) in acc.iter_mut().zip(tail) {
        *s += elem(a);
    }
    reduce_stripes(acc)
}

/// [`row`] compiled with AVX2 enabled: `trunc` becomes one `vroundsd` /
/// `vroundpd` instead of the libm call baseline x86-64 makes per element.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn row_avx2(bytes: &[f64], out: &mut [f64], e: f64, b: f64, cap: f64) {
    row(bytes, out, e, b, cap)
}

/// [`rate`] compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn rate_avx2(delays: &[f64]) -> f64 {
    rate(delays)
}

/// A snapshot of one node's buffer organised as per-destination delivery
/// queues (Fig. 1): packets sorted oldest-first (decreasing `T(i)`, the
/// order Step 2 of Protocol RAPID would deliver them), with prefix byte
/// sums so `b(i)` is O(log n) per query.
///
/// Destinations are interned onto dense slots (no hashing on the query
/// path), and queues share the buffer's [`QueueEntry`] layout, so
/// refilling from a buffer is a straight `memcpy` per queue. The snapshot
/// decouples scoring from the live buffer: RAPID scores a whole contact
/// against the queue state at contact start, even as transfers mutate the
/// buffers mid-contact.
#[derive(Debug, Clone, Default)]
pub struct QueueSnapshot {
    /// Destinations seen, interned in first-seen order.
    dsts: NodeInterner,
    /// Per interned destination: entries sorted by `(created_at, id)` with
    /// exact `bytes_ahead` prefix sums.
    queues: Vec<Vec<QueueEntry>>,
}

impl QueueSnapshot {
    /// Builds a snapshot from `(id, dst, size, created_at)` tuples.
    pub fn build(packets: impl IntoIterator<Item = (PacketId, NodeId, u64, Time)>) -> Self {
        let mut snap = Self::default();
        for (id, dst, size, created) in packets {
            let di = snap.dsts.intern(dst).index();
            if di >= snap.queues.len() {
                snap.queues.resize(di + 1, Vec::new());
            }
            snap.queues[di].push(QueueEntry {
                created_at: created,
                id,
                size_bytes: size,
                bytes_ahead: 0,
            });
        }
        for q in &mut snap.queues {
            // Oldest first = smallest created_at first; PacketId tiebreak
            // keeps the order deterministic.
            q.sort_unstable_by_key(|e| (e.created_at, e.id));
            let mut acc = 0u64;
            for e in q {
                e.bytes_ahead = acc;
                acc += e.size_bytes;
            }
        }
        snap
    }

    /// Copies a buffer's maintained delivery queues into a snapshot in
    /// O(n) — no re-sorting, no hashing; the buffer keeps its queues (and
    /// prefix sums) in exactly the form [`QueueSnapshot::build`] would
    /// produce.
    pub fn from_buffer(buffer: &NodeBuffer) -> Self {
        let mut snap = Self::default();
        snap.refill_from_buffer(buffer);
        snap
    }

    /// [`QueueSnapshot::from_buffer`] into an existing snapshot, reusing
    /// its allocations — the per-contact snapshot pair is refilled this
    /// way so steady-state contacts allocate nothing for queue state.
    pub fn refill_from_buffer(&mut self, buffer: &NodeBuffer) {
        self.dsts.clear();
        for q in &mut self.queues {
            q.clear();
        }
        for (dst, entries) in buffer.queues() {
            let di = self.dsts.intern(dst).index();
            if di >= self.queues.len() {
                self.queues.push(Vec::new());
            }
            self.queues[di].extend_from_slice(entries);
        }
    }

    /// The queue for `dst`, if the snapshot has one.
    pub fn queue(&self, dst: NodeId) -> Option<&[QueueEntry]> {
        let di = self.dsts.get(dst)?.index();
        Some(&self.queues[di])
    }

    /// Bytes queued ahead of an *existing* packet in the `dst` queue.
    ///
    /// # Panics
    /// If the packet is not in the snapshot.
    pub fn bytes_ahead(&self, dst: NodeId, id: PacketId, created_at: Time) -> u64 {
        let q = self
            .queue(dst)
            .unwrap_or_else(|| panic!("no queue for {dst}"));
        queue_slice::bytes_ahead(q, dst, id, created_at)
    }

    /// Bytes that would be queued ahead of a *hypothetical* packet with the
    /// given age, were it inserted (used to evaluate replicating onto this
    /// node: older packets with the same destination go first).
    pub fn bytes_ahead_if_inserted(&self, dst: NodeId, created_at: Time) -> u64 {
        queue_slice::bytes_ahead_if_inserted(self.queue(dst).unwrap_or(&[]), created_at)
    }

    /// Total queued bytes for `dst`.
    pub fn total_bytes(&self, dst: NodeId) -> u64 {
        queue_slice::total_bytes(self.queue(dst).unwrap_or(&[]))
    }

    /// Iterates the non-empty destination queues in the same
    /// `(dst, entries)` shape as [`NodeBuffer::queues`]. Walking a queue
    /// makes [`QueueSnapshot::bytes_ahead`] an O(1) slot read.
    pub fn queues(&self) -> impl Iterator<Item = (NodeId, &[QueueEntry])> + '_ {
        self.queues.iter().enumerate().filter_map(move |(i, q)| {
            if q.is_empty() {
                None
            } else {
                Some((self.dsts.id(dtn_sim::NodeIdx(i as u32)), q.as_slice()))
            }
        })
    }

    /// A monotone cursor over the `dst` queue for repeated
    /// [`QueueSnapshot::bytes_ahead_if_inserted`] queries with
    /// non-decreasing `created_at` — each query is then O(1) amortized
    /// instead of a binary search.
    pub fn insert_cursor(&self, dst: NodeId) -> InsertCursor<'_> {
        InsertCursor::over(self.queue(dst).unwrap_or(&[]))
    }
}

/// See [`QueueSnapshot::insert_cursor`]; works over any delivery-order
/// queue slice (snapshot or live buffer).
#[derive(Debug)]
pub struct InsertCursor<'a> {
    q: &'a [QueueEntry],
    pos: usize,
}

impl<'a> InsertCursor<'a> {
    /// A cursor over a `(created_at, id)`-ordered queue slice.
    pub fn over(q: &'a [QueueEntry]) -> Self {
        Self { q, pos: 0 }
    }

    /// Bytes ahead of a hypothetical insert at `created_at`. Equals
    /// [`QueueSnapshot::bytes_ahead_if_inserted`] provided `created_at`
    /// never decreases across calls on one cursor: the monotone advance
    /// lands on the same partition point the binary search would find.
    pub fn bytes_ahead_if_inserted(&mut self, created_at: Time) -> u64 {
        while self.pos < self.q.len() && self.q[self.pos].created_at < created_at {
            self.pos += 1;
        }
        queue_slice::ahead_of_slot(self.q, self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} !~ {b} (tol {tol})");
    }

    #[test]
    fn meetings_needed_head_of_queue_is_one() {
        close(meetings_needed(0, 1000.0), 1.0, 1e-12);
        close(meetings_needed(999, 1000.0), 1.0, 1e-12);
        close(meetings_needed(1000, 1000.0), 2.0, 1e-12);
        close(meetings_needed(2500, 1000.0), 3.0, 1e-12);
    }

    #[test]
    fn eq8_uniform_example() {
        // §4.1.1: without bandwidth restrictions, k replicas each needing
        // one meeting with rate λ give A(i) = 1/(kλ).
        let lambda = 0.02; // mean meeting time 50 s
        let k = 4;
        let delays = vec![1.0 / lambda; k];
        close(
            expected_remaining_delay(delays.clone()),
            1.0 / (k as f64 * lambda),
            1e-9,
        );
        // Eq. 7 at t = mean: P = 1 − e^{−kλt}.
        let t = 10.0;
        close(
            prob_delivered_within(delays, t),
            1.0 - (-(k as f64) * lambda * t).exp(),
            1e-12,
        );
    }

    #[test]
    fn eq9_non_uniform_rates() {
        // A(i) = (λ1/n1 + λ2/n2)^-1 with a_j = n_j/λ_j.
        let a1 = replica_delay(100.0, 2.0); // 200 s
        let a2 = replica_delay(50.0, 1.0); // 50 s
        close(expected_remaining_delay([a1, a2]), 40.0, 1e-9); // (1/200+1/50)^-1
    }

    #[test]
    fn unreachable_replicas_contribute_nothing() {
        let inf = replica_delay(f64::INFINITY, 1.0);
        assert!(inf.is_infinite());
        close(expected_remaining_delay([inf, 100.0]), 100.0, 1e-9);
        assert!(expected_remaining_delay([inf]).is_infinite());
        assert_eq!(prob_delivered_within([inf], 10.0), 0.0);
    }

    #[test]
    fn more_replicas_never_hurt() {
        let base = expected_remaining_delay([100.0, 200.0]);
        let more = expected_remaining_delay([100.0, 200.0, 500.0]);
        assert!(more < base);
        let p_base = prob_delivered_within([100.0, 200.0], 30.0);
        let p_more = prob_delivered_within([100.0, 200.0, 500.0], 30.0);
        assert!(p_more > p_base);
    }

    #[test]
    fn prob_edge_cases() {
        assert_eq!(prob_delivered_within([100.0], 0.0), 0.0);
        assert_eq!(prob_delivered_within([100.0], -5.0), 0.0);
        assert_eq!(prob_delivered_within(std::iter::empty(), 10.0), 0.0);
    }

    #[test]
    fn kernel_parse_is_strict() {
        assert_eq!(Kernel::parse(None).unwrap(), Kernel::detect());
        assert_eq!(Kernel::parse(Some("auto")).unwrap(), Kernel::detect());
        assert_eq!(Kernel::parse(Some("scalar")).unwrap(), Kernel::Scalar);
        assert!(Kernel::parse(Some("sse2")).is_err());
        assert!(Kernel::parse(Some("")).is_err());
        match Kernel::parse(Some("avx2")) {
            Ok(k) => assert_eq!(k, Kernel::Avx2),
            Err(e) => assert!(e.contains("AVX2"), "unexpected error: {e}"),
        }
    }

    #[test]
    fn only_a_supported_kernel_is_accepted() {
        for detected in [Kernel::Scalar, Kernel::Avx2] {
            assert_eq!(Kernel::Scalar.assert_supported_on(detected), Kernel::Scalar);
        }
        assert_eq!(Kernel::Avx2.assert_supported_on(Kernel::Avx2), Kernel::Avx2);
        // Whatever this machine detects is accepted at construction.
        let k = Kernel::detect();
        let rapid = crate::Rapid::with_kernel(crate::RapidConfig::avg_delay(), k);
        assert_eq!(rapid.kernel(), k);
    }

    /// The reject path, with detection stubbed to a CPU without AVX2.
    #[test]
    #[should_panic(expected = "diag=kernel-unsupported detected=Scalar")]
    fn avx2_is_refused_where_it_was_not_detected() {
        Kernel::Avx2.assert_supported_on(Kernel::Scalar);
    }

    /// A NaN cap used to reach the row: the AVX2 lanes returned NaN, its
    /// tail 250.0 and `Scalar` finite values. Now no kernel runs at all.
    #[test]
    #[should_panic(expected = "diag=delay-cap-invalid")]
    fn a_nan_delay_cap_is_refused_by_the_row() {
        let mut batch = RateBatch::default();
        batch.push(0);
        batch.compute(50.0, 10.0, f64::NAN, Kernel::Scalar);
    }

    /// Every kernel available on this machine, scalar always first.
    fn available_kernels() -> Vec<Kernel> {
        let mut ks = vec![Kernel::Scalar];
        if Kernel::detect() == Kernel::Avx2 {
            ks.push(Kernel::Avx2);
        }
        ks
    }

    #[test]
    fn rate_batch_rows_match_scalar_chain_bitwise() {
        let cap = 1.0e9;
        let queues: &[&[u64]] = &[
            &[],
            &[0],
            &[0, 999, 1000, 2500, 7777],
            &[0, 1, 2, 3, 4, 5, 6, 7, 8], // exercises tail lanes
            &[u64::MAX, 1 << 53, (1 << 53) + 1, 12_345_678_901_234],
        ];
        let meetings = [50.0, 0.0, f64::INFINITY, f64::NAN, 1.0e-12, 3.7e8];
        let opps = [1000.0, 0.0, 1.0, 102_400.0, f64::INFINITY];
        for &kernel in &available_kernels() {
            let mut batch = RateBatch::default();
            for &queue in queues {
                for &e in &meetings {
                    for &b in &opps {
                        batch.clear();
                        for &bytes in queue {
                            batch.push(bytes);
                        }
                        let rows = batch.compute(e, b, cap, kernel).to_vec();
                        let expect: Vec<f64> = queue
                            .iter()
                            .map(|&bytes| replica_delay(e, meetings_needed(bytes, b)).min(cap))
                            .collect();
                        assert_eq!(rows.len(), expect.len());
                        for (got, want) in rows.iter().zip(&expect) {
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{kernel:?} e={e} b={b}: {got} != {want}"
                            );
                        }
                        assert_eq!(
                            batch.combined_rate(kernel).to_bits(),
                            combined_rate(expect.iter().copied()).to_bits(),
                            "{kernel:?} combined_rate diverged"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn striped_reduction_is_lane_order_not_list_order() {
        // The stripe assignment is positional, so the reduction is a fixed
        // function of the sequence — permuting the list may change bits,
        // but evaluating the same sequence twice never does.
        let delays = [3.0, 7.0, 11.0, 13.0, 17.0, 19.0, 23.0];
        let a = combined_rate(delays.iter().copied());
        let b = combined_rate(delays.iter().copied());
        assert_eq!(a.to_bits(), b.to_bits());
        close(a, delays.iter().map(|d| 1.0 / d).sum(), 1e-12);
    }

    fn q(entries: &[(u32, u32, u64, u64)]) -> QueueSnapshot {
        // (id, dst, size, created_secs)
        QueueSnapshot::build(
            entries
                .iter()
                .map(|&(id, dst, size, t)| (PacketId(id), NodeId(dst), size, Time::from_secs(t))),
        )
    }

    #[test]
    fn queue_positions_oldest_first() {
        let s = q(&[
            (0, 9, 1000, 50), // newest
            (1, 9, 1000, 10), // oldest → head
            (2, 9, 1000, 30),
            (3, 8, 500, 5), // other destination
        ]);
        let dst = NodeId(9);
        assert_eq!(s.bytes_ahead(dst, PacketId(1), Time::from_secs(10)), 0);
        assert_eq!(s.bytes_ahead(dst, PacketId(2), Time::from_secs(30)), 1000);
        assert_eq!(s.bytes_ahead(dst, PacketId(0), Time::from_secs(50)), 2000);
        assert_eq!(s.bytes_ahead(NodeId(8), PacketId(3), Time::from_secs(5)), 0);
        assert_eq!(s.total_bytes(dst), 3000);
        assert_eq!(s.total_bytes(NodeId(7)), 0);
    }

    #[test]
    fn hypothetical_insertion_position() {
        let s = q(&[(0, 9, 1000, 10), (1, 9, 1000, 30)]);
        let dst = NodeId(9);
        // Older than everything → head.
        assert_eq!(s.bytes_ahead_if_inserted(dst, Time::from_secs(5)), 0);
        // Between the two.
        assert_eq!(s.bytes_ahead_if_inserted(dst, Time::from_secs(20)), 1000);
        // Newest → tail.
        assert_eq!(s.bytes_ahead_if_inserted(dst, Time::from_secs(99)), 2000);
        // Unknown destination → empty queue.
        assert_eq!(s.bytes_ahead_if_inserted(NodeId(1), Time::from_secs(1)), 0);
    }

    #[test]
    fn equal_timestamps_break_ties_by_id() {
        let s = q(&[(5, 9, 100, 10), (2, 9, 100, 10)]);
        let dst = NodeId(9);
        assert_eq!(s.bytes_ahead(dst, PacketId(2), Time::from_secs(10)), 0);
        assert_eq!(s.bytes_ahead(dst, PacketId(5), Time::from_secs(10)), 100);
    }

    #[test]
    fn from_buffer_matches_build() {
        use dtn_sim::Packet;
        let entries: &[(u32, u32, u64, u64)] = &[
            (0, 9, 1000, 50),
            (1, 9, 500, 10),
            (2, 8, 200, 30),
            (3, 9, 100, 10), // same created_at as p1, id tie-break
        ];
        let mut buf = NodeBuffer::new(u64::MAX);
        for &(id, dst, size, t) in entries {
            buf.insert(
                &Packet {
                    id: PacketId(id),
                    src: NodeId(0),
                    dst: NodeId(dst),
                    size_bytes: size,
                    created_at: Time::from_secs(t),
                },
                Time::ZERO,
            );
        }
        let via_buffer = QueueSnapshot::from_buffer(&buf);
        let via_build = q(entries);
        for &(id, dst, _, t) in entries {
            assert_eq!(
                via_buffer.bytes_ahead(NodeId(dst), PacketId(id), Time::from_secs(t)),
                via_build.bytes_ahead(NodeId(dst), PacketId(id), Time::from_secs(t)),
            );
        }
        for dst in [8u32, 9, 7] {
            assert_eq!(
                via_buffer.total_bytes(NodeId(dst)),
                via_build.total_bytes(NodeId(dst))
            );
            for t in [0u64, 20, 40, 99] {
                assert_eq!(
                    via_buffer.bytes_ahead_if_inserted(NodeId(dst), Time::from_secs(t)),
                    via_build.bytes_ahead_if_inserted(NodeId(dst), Time::from_secs(t)),
                );
            }
        }
    }
}
