//! Compiled contact plans: generator atoms expanded lazily through the
//! [`ContactSource`](crate::source::ContactSource) seam.
//!
//! A materialized [`Schedule`] costs one [`ContactWindow`] (48 bytes) per
//! meeting, which caps scenario size at what fits in RAM. A
//! [`CompiledPlan`] stores [`PlanAtom`]s instead — literal windows,
//! periodic generators, or delta-encoded runs — and [`PlanStream`]
//! heap-merges the atom cursors back into start order on demand, so the
//! resident cost is the *plan*, not its expansion: a periodic atom covers
//! any number of meetings in a constant-size struct, and a delta run costs
//! one `TimeDelta` per extra meeting instead of a whole window.
//!
//! # Expansion order
//!
//! The contract is exact equivalence with the materialized path:
//! [`PlanStream`] yields the same window sequence as
//! `Schedule::new(plan.materialize_windows()).windows()` — i.e. the stable
//! sort by `start` of the concatenated atom expansions, atoms in
//! first-start order. The stream achieves this by merging on
//! `(start, atom index, repeat)`: within an atom the repeats are
//! nondecreasing in start and emitted in order, and across atoms equal
//! starts break by atom index, which is exactly what a stable sort does to
//! the concatenation. Atoms activate lazily (sorted by first start), so a
//! plan with millions of atoms keeps only the *started* ones in the merge
//! heap.
//!
//! [`CompiledPlan::compress`] is the inverse: it folds an already-ordered
//! window stream into atoms such that the round trip is exact — same
//! order, same capacities, same durations — by tie-safe run-length
//! rules (a run is never extended across an equal-start window that
//! would then expand ahead of it).

use crate::contact::{ContactWindow, Schedule};
use crate::time::{Time, TimeDelta};
use dtn_trace::{ContactRecord, RecordAtom, RecordPlan};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// One atom of a compiled contact plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanAtom {
    /// A single literal window.
    Literal(ContactWindow),
    /// `repeats` copies of `template`, the k-th shifted `k * period` later
    /// (the template's own `start` is the phase). `repeats >= 2`.
    Periodic {
        /// The first window of the train; endpoints, rate, lump and
        /// duration are shared by every repeat.
        template: ContactWindow,
        /// Start-to-start gap between consecutive repeats.
        period: TimeDelta,
        /// Total number of windows, including the template's.
        repeats: u32,
    },
    /// `deltas.len() + 1` windows: the template, then one more per delta,
    /// each starting `deltas[k]` after its predecessor.
    DeltaRun {
        /// The first window of the run.
        template: ContactWindow,
        /// Consecutive start-to-start gaps.
        deltas: Vec<TimeDelta>,
    },
}

impl PlanAtom {
    /// The first window (every repeat shares its shape).
    pub fn template(&self) -> &ContactWindow {
        match self {
            PlanAtom::Literal(t)
            | PlanAtom::Periodic { template: t, .. }
            | PlanAtom::DeltaRun { template: t, .. } => t,
        }
    }

    /// Start of the atom's first window.
    pub fn first_start(&self) -> Time {
        self.template().start
    }

    /// Number of windows this atom expands to.
    pub fn window_count(&self) -> u64 {
        match self {
            PlanAtom::Literal(_) => 1,
            PlanAtom::Periodic { repeats, .. } => u64::from(*repeats),
            PlanAtom::DeltaRun { deltas, .. } => deltas.len() as u64 + 1,
        }
    }

    /// Start of the last repeat; `None` if the train overflows the time
    /// axis (such an atom is rejected by [`CompiledPlan::new`]).
    fn last_start(&self) -> Option<u64> {
        match self {
            PlanAtom::Literal(t) => Some(t.start.0),
            PlanAtom::Periodic {
                template,
                period,
                repeats,
            } => period
                .0
                .checked_mul(u64::from(repeats.checked_sub(1)?))
                .and_then(|span| template.start.0.checked_add(span)),
            PlanAtom::DeltaRun { template, deltas } => deltas
                .iter()
                .try_fold(template.start.0, |t, d| t.checked_add(d.0)),
        }
    }

    /// Heap-allocated bytes owned by this atom (delta storage).
    fn heap_bytes(&self) -> usize {
        match self {
            PlanAtom::DeltaRun { deltas, .. } => deltas.capacity() * size_of::<TimeDelta>(),
            _ => 0,
        }
    }
}

/// A validated, expansion-ready compressed contact plan.
///
/// Atoms are held in first-start order; [`CompiledPlan::stream`] expands
/// them lazily and [`CompiledPlan::materialize`] eagerly (both in the same
/// order — see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompiledPlan {
    atoms: Vec<PlanAtom>,
    window_count: u64,
}

impl CompiledPlan {
    /// Builds a plan from atoms, stable-sorting them by first start (the
    /// canonical tie-break order of expansion).
    ///
    /// # Panics
    /// If an atom's repeat train overflows the time axis, or a
    /// `Periodic`/`DeltaRun` atom has fewer than two windows.
    pub fn new(mut atoms: Vec<PlanAtom>) -> Self {
        for atom in &atoms {
            assert!(atom.last_start().is_some(), "atom overflows the time axis");
            match atom {
                PlanAtom::Periodic { repeats, .. } => {
                    assert!(*repeats >= 2, "periodic atoms repeat at least twice")
                }
                PlanAtom::DeltaRun { deltas, .. } => {
                    assert!(!deltas.is_empty(), "delta runs carry at least one delta")
                }
                PlanAtom::Literal(_) => {}
            }
        }
        atoms.sort_by_key(PlanAtom::first_start);
        let window_count = atoms.iter().map(PlanAtom::window_count).sum();
        Self {
            atoms,
            window_count,
        }
    }

    /// Folds a window sequence in nondecreasing `start` order (what any
    /// [`ContactSource`](crate::source::ContactSource) yields) into a plan
    /// whose expansion replays the sequence exactly.
    ///
    /// Consecutive windows sharing endpoints, rate, lump and duration fold
    /// into one run: regular gaps become [`PlanAtom::Periodic`], irregular
    /// ones [`PlanAtom::DeltaRun`]. Within a group of equal-start windows,
    /// a run is only extended when doing so preserves the input order on
    /// expansion; otherwise the run is closed and a fresh atom opened.
    /// Encoding memory is O(distinct open runs) plus the output plan.
    ///
    /// # Panics
    /// If starts decrease.
    pub fn compress<I: IntoIterator<Item = ContactWindow>>(windows: I) -> Self {
        type Key = (u64, u32, u32, u64, u64);
        struct Run {
            template: ContactWindow,
            last_start: Time,
            deltas: Vec<TimeDelta>,
        }
        let mut runs: Vec<Run> = Vec::new();
        let mut open: HashMap<Key, usize> = HashMap::new();
        let mut last = Time::ZERO;
        // Largest run index extended within the current equal-start group.
        let mut tie_max: Option<usize> = None;

        for w in windows {
            assert!(last <= w.start, "windows must be start-ordered");
            if last != w.start {
                tie_max = None;
            }
            last = w.start;

            let key: Key = (w.duration().0, w.a.0, w.b.0, w.bytes_per_sec, w.lump_bytes);
            let extendable = open
                .get(&key)
                .copied()
                .filter(|&ri| tie_max.is_none_or(|m| m <= ri));
            match extendable {
                Some(ri) => {
                    let run = &mut runs[ri];
                    run.deltas.push(w.start.since(run.last_start));
                    run.last_start = w.start;
                    tie_max = Some(ri);
                }
                None => {
                    let ri = runs.len();
                    runs.push(Run {
                        template: w,
                        last_start: w.start,
                        deltas: Vec::new(),
                    });
                    open.insert(key, ri);
                    tie_max = Some(ri);
                }
            }
        }

        Self::new(
            runs.into_iter()
                .map(|run| {
                    if run.deltas.is_empty() {
                        return PlanAtom::Literal(run.template);
                    }
                    let first = run.deltas[0];
                    if run.deltas.iter().all(|&d| d == first) {
                        return PlanAtom::Periodic {
                            template: run.template,
                            period: first,
                            repeats: run.deltas.len() as u32 + 1,
                        };
                    }
                    PlanAtom::DeltaRun {
                        template: run.template,
                        deltas: run.deltas,
                    }
                })
                .collect(),
        )
    }

    /// Compresses an existing schedule (already start-sorted).
    pub fn compress_schedule(schedule: &Schedule) -> Self {
        Self::compress(schedule.windows().iter().copied())
    }

    /// The atoms, in first-start order.
    pub fn atoms(&self) -> &[PlanAtom] {
        &self.atoms
    }

    /// Number of atoms.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// Total windows the plan expands to.
    pub fn window_count(&self) -> u64 {
        self.window_count
    }

    /// Whether the plan expands to nothing.
    pub fn is_empty(&self) -> bool {
        self.window_count == 0
    }

    /// Resident size of the plan representation in bytes (atom structs
    /// plus delta storage) — what the compression metrics compare against
    /// `window_count() * size_of::<ContactWindow>()` for the materialized
    /// equivalent.
    pub fn in_memory_bytes(&self) -> usize {
        self.atoms.capacity() * size_of::<PlanAtom>()
            + self.atoms.iter().map(PlanAtom::heap_bytes).sum::<usize>()
    }

    /// Resident size of the materialized equivalent, bytes.
    pub fn materialized_bytes(&self) -> u64 {
        self.window_count * size_of::<ContactWindow>() as u64
    }

    /// Lazily expands the plan in start order (ties by atom order); the
    /// stream is a [`ContactSource`](crate::source::ContactSource) via the
    /// iterator blanket impl.
    pub fn stream(self: &Arc<Self>) -> PlanStream {
        PlanStream::new(Arc::clone(self))
    }

    /// Eagerly expands the plan into a [`Schedule`] — byte-identical to
    /// collecting [`CompiledPlan::stream`].
    pub fn materialize(&self) -> Schedule {
        let arc = Arc::new(self.clone());
        Schedule::new(arc.stream().collect::<Vec<_>>())
    }

    /// Converts to the trace-layer plan for binary serialization
    /// ([`RecordPlan::to_bytes`]), mapping templates through the exact
    /// [`ContactWindow`] ↔ [`ContactRecord`] correspondence (day 0).
    pub fn to_record_plan(&self) -> RecordPlan {
        RecordPlan::new(
            self.atoms
                .iter()
                .map(|atom| match atom {
                    PlanAtom::Literal(t) => RecordAtom::Literal(ContactRecord::from(*t)),
                    PlanAtom::Periodic {
                        template,
                        period,
                        repeats,
                    } => RecordAtom::Periodic {
                        template: ContactRecord::from(*template),
                        period_us: period.0,
                        repeats: *repeats,
                    },
                    PlanAtom::DeltaRun { template, deltas } => RecordAtom::DeltaRun {
                        template: ContactRecord::from(*template),
                        deltas_us: deltas.iter().map(|d| d.0).collect(),
                    },
                })
                .collect(),
        )
    }

    /// Rebuilds a plan from its trace-layer form (day indices are folded
    /// into day-0 window starts, matching
    /// [`Schedule::from_records`] semantics).
    pub fn from_record_plan(plan: &RecordPlan) -> Self {
        Self::new(
            plan.atoms()
                .iter()
                .map(|atom| match atom {
                    RecordAtom::Literal(t) => PlanAtom::Literal(ContactWindow::from(*t)),
                    RecordAtom::Periodic {
                        template,
                        period_us,
                        repeats,
                    } => PlanAtom::Periodic {
                        template: ContactWindow::from(*template),
                        period: TimeDelta(*period_us),
                        repeats: *repeats,
                    },
                    RecordAtom::DeltaRun {
                        template,
                        deltas_us,
                    } => PlanAtom::DeltaRun {
                        template: ContactWindow::from(*template),
                        deltas: deltas_us.iter().map(|&d| TimeDelta(d)).collect(),
                    },
                })
                .collect(),
        )
    }

    /// Size of the compact binary encoding, bytes.
    pub fn encoded_len(&self) -> usize {
        self.to_record_plan().encoded_len()
    }

    /// Start of the earliest window whose endpoints span two shards of
    /// `partition`, or `None` when every window is shard-local.
    ///
    /// This is the sharded runtime's static sync horizon: every repeat
    /// of an atom shares the template's endpoints, so scanning atoms (in
    /// first-start order) yields the exact first cross-shard start
    /// without expanding a single window — a conservative lower bound on
    /// when the first inter-shard barrier can possibly occur. Shards can
    /// free-run from time zero up to this instant.
    pub fn first_cross_shard_start(&self, partition: &crate::shard::Partition) -> Option<Time> {
        self.atoms
            .iter()
            .find(|a| !partition.is_local(a.template()))
            .map(|a| a.first_start())
    }

    /// Largest node index mentioned, plus one (0 when empty) — the
    /// compressed twin of [`Schedule::node_count_hint`].
    pub fn node_count_hint(&self) -> usize {
        self.atoms
            .iter()
            .map(|a| {
                let t = a.template();
                t.a.0.max(t.b.0) as usize + 1
            })
            .max()
            .unwrap_or(0)
    }
}

/// Lazy expansion cursor over a shared [`CompiledPlan`].
///
/// Many concurrent runs can stream the same plan through their own
/// cursors, exactly like
/// [`ScheduleStream`](crate::source::ScheduleStream) over a shared
/// schedule — but the shared state is the compressed plan, not the
/// expansion. The merge heap holds one entry per *started* atom;
/// not-yet-started atoms cost nothing until their first window is due.
#[derive(Debug, Clone)]
pub struct PlanStream {
    plan: Arc<CompiledPlan>,
    /// Pending repeats: `(start µs, atom index, repeat index)` — popping
    /// the minimum reproduces the stable-sort-by-start order.
    heap: BinaryHeap<Reverse<(u64, u32, u32)>>,
    /// First atom (in first-start order) not yet activated.
    next_atom: usize,
    emitted: u64,
}

impl PlanStream {
    /// Streams `plan` from its first window.
    pub fn new(plan: Arc<CompiledPlan>) -> Self {
        Self {
            plan,
            heap: BinaryHeap::new(),
            next_atom: 0,
            emitted: 0,
        }
    }
}

impl Iterator for PlanStream {
    type Item = ContactWindow;

    fn next(&mut self) -> Option<ContactWindow> {
        let atoms = &self.plan.atoms;
        // Activate every atom whose first window is due at or before the
        // current merge front (atoms are sorted by first start, so the
        // scan never revisits).
        while self.next_atom < atoms.len() {
            let first = atoms[self.next_atom].first_start().0;
            match self.heap.peek() {
                Some(&Reverse((due, _, _))) if first > due => break,
                _ => {
                    self.heap.push(Reverse((first, self.next_atom as u32, 0)));
                    self.next_atom += 1;
                }
            }
        }

        let Reverse((start, idx, repeat)) = self.heap.pop()?;
        let atom = &atoms[idx as usize];
        let template = atom.template();
        let next = match atom {
            PlanAtom::Literal(_) => None,
            PlanAtom::Periodic {
                period, repeats, ..
            } => (repeat + 1 < *repeats).then(|| start + period.0),
            PlanAtom::DeltaRun { deltas, .. } => deltas.get(repeat as usize).map(|d| start + d.0),
        };
        if let Some(next_start) = next {
            self.heap.push(Reverse((next_start, idx, repeat + 1)));
        }
        self.emitted += 1;
        Some(template.shifted(TimeDelta(start - template.start.0)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.plan.window_count - self.emitted) as usize;
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::NodeId;

    fn inst(start_us: u64, a: u32, b: u32, bytes: u64) -> ContactWindow {
        ContactWindow::instant(Time(start_us), NodeId(a), NodeId(b), bytes)
    }

    #[test]
    fn compress_round_trips_exactly() {
        let mut windows = Vec::new();
        for k in 0..50u64 {
            windows.push(inst(10 + 40 * k, 0, 1, 512)); // periodic run
        }
        windows.push(inst(17, 2, 3, 64)); // literal
        windows.extend([inst(100, 4, 5, 9), inst(103, 4, 5, 9), inst(110, 4, 5, 9)]); // delta run
        windows.push(ContactWindow::new(
            Time(500),
            Time(2_000_500),
            NodeId(6),
            NodeId(7),
            1000,
        ));
        let sorted = Schedule::new(windows).windows().to_vec();

        let plan = Arc::new(CompiledPlan::compress(sorted.iter().copied()));
        assert!(plan.atom_count() < sorted.len() / 2);
        assert_eq!(plan.window_count(), sorted.len() as u64);
        let streamed: Vec<_> = plan.stream().collect();
        assert_eq!(streamed, sorted);
        assert_eq!(plan.materialize().windows(), &sorted[..]);
    }

    /// Compresses `windows` (already start-ordered) and checks the exact
    /// round trip before handing the plan back for shape assertions.
    fn compress_checked(windows: &[ContactWindow]) -> Arc<CompiledPlan> {
        let plan = Arc::new(CompiledPlan::compress(windows.iter().copied()));
        assert_eq!(plan.stream().collect::<Vec<_>>(), windows);
        plan
    }

    #[test]
    fn periodic_run_compresses_to_one_atom() {
        let windows: Vec<_> = (0..100).map(|k| inst(10 + 50 * k, 1, 2, 512)).collect();
        let plan = compress_checked(&windows);
        assert!(matches!(
            plan.atoms(),
            [PlanAtom::Periodic {
                period: TimeDelta(50),
                repeats: 100,
                ..
            }]
        ));
        // 100 windows encode to a handful of bytes.
        assert!(plan.encoded_len() < 32, "{} bytes", plan.encoded_len());
    }

    #[test]
    fn irregular_run_becomes_delta_atom() {
        let windows: Vec<_> = [5u64, 9, 20, 21, 100]
            .iter()
            .map(|&t| ContactWindow::new(Time(t), Time(t + 1000), NodeId(3), NodeId(4), 64))
            .collect();
        let plan = compress_checked(&windows);
        match plan.atoms() {
            [PlanAtom::DeltaRun { template, deltas }] => {
                assert_eq!(template.start, Time(5));
                assert_eq!(deltas, &[4, 11, 1, 79].map(TimeDelta));
            }
            other => panic!("expected one delta run, got {other:?}"),
        }
    }

    #[test]
    fn interleaved_pairs_round_trip() {
        let plan = compress_checked(&[
            inst(0, 1, 2, 10),
            inst(3, 3, 4, 20),
            inst(5, 1, 2, 10),
            inst(8, 3, 4, 20),
            inst(10, 1, 2, 10),
        ]);
        // Each pair folds into its own periodic atom.
        assert_eq!(plan.atom_count(), 2);
    }

    #[test]
    fn ties_never_reorder() {
        // Run A opens at t=0; at t=5 the order is B then A — extending A
        // after B would emit A's repeat before B's window on expansion, so
        // the encoder must break A's run.
        let plan = compress_checked(&[
            inst(0, 1, 2, 10),
            inst(5, 3, 4, 20),
            inst(5, 1, 2, 10),
            inst(5, 1, 2, 10),
            inst(9, 3, 4, 20),
        ]);
        assert_eq!(plan.atom_count(), 3, "A, B, and A's broken-off tail");
    }

    #[test]
    fn same_instant_same_key_repeats_stay_one_run() {
        let plan = compress_checked(&[inst(7, 1, 2, 10); 3]);
        assert!(matches!(
            plan.atoms(),
            [PlanAtom::Periodic {
                period: TimeDelta(0),
                repeats: 3,
                ..
            }]
        ));
    }

    #[test]
    fn stream_matches_stable_sort_with_ties() {
        // Three atoms colliding at t=100: expansion must break ties by
        // atom (first-start) order, like Schedule::new's stable sort.
        let plan = Arc::new(CompiledPlan::new(vec![
            PlanAtom::Periodic {
                template: inst(0, 0, 1, 1),
                period: TimeDelta(50),
                repeats: 3,
            },
            PlanAtom::Literal(inst(100, 2, 3, 2)),
            PlanAtom::DeltaRun {
                template: inst(40, 4, 5, 3),
                deltas: vec![TimeDelta(60), TimeDelta(5)],
            },
        ]));
        let streamed: Vec<_> = plan.stream().collect();
        let concat: Vec<ContactWindow> = vec![
            inst(0, 0, 1, 1),
            inst(50, 0, 1, 1),
            inst(100, 0, 1, 1),
            inst(40, 4, 5, 3),
            inst(100, 4, 5, 3),
            inst(105, 4, 5, 3),
            inst(100, 2, 3, 2),
        ];
        assert_eq!(streamed, Schedule::new(concat).windows());
        assert_eq!(streamed.len(), plan.window_count() as usize);
    }

    #[test]
    fn lazy_activation_defers_future_atoms() {
        let atoms: Vec<PlanAtom> = (0..100)
            .map(|k| PlanAtom::Literal(inst(1000 * k, 0, 1, 1)))
            .collect();
        let plan = Arc::new(CompiledPlan::new(atoms));
        let mut stream = plan.stream();
        assert_eq!(stream.size_hint(), (100, Some(100)));
        stream.next();
        // Only the merge front is in the heap, not all 100 atoms.
        assert!(stream.heap.len() <= 1, "heap holds {}", stream.heap.len());
        assert!(stream.next_atom <= 2);
        assert_eq!(stream.count(), 99);
    }

    #[test]
    fn record_plan_round_trip_and_binary() {
        let windows = vec![
            inst(5, 1, 2, 77),
            inst(55, 1, 2, 77),
            inst(105, 1, 2, 77),
            ContactWindow::new(Time(9), Time(4_000_009), NodeId(3), NodeId(4), 512),
        ];
        let plan = CompiledPlan::compress(Schedule::new(windows).windows().iter().copied());
        let rp = plan.to_record_plan();
        let back = CompiledPlan::from_record_plan(&rp);
        assert_eq!(back, plan);
        let decoded = dtn_trace::RecordPlan::from_bytes(&rp.to_bytes()).unwrap();
        assert_eq!(CompiledPlan::from_record_plan(&decoded), plan);
        assert_eq!(plan.encoded_len(), rp.to_bytes().len());
    }

    #[test]
    fn compression_metrics_show_the_win() {
        let windows: Vec<_> = (0..10_000u64)
            .map(|k| inst(7 + 100 * k, 0, 1, 2048))
            .collect();
        let plan = CompiledPlan::compress(windows.iter().copied());
        assert_eq!(plan.atom_count(), 1);
        assert!(plan.materialized_bytes() as usize > 100 * plan.in_memory_bytes());
        assert!(plan.materialized_bytes() as usize > 100 * plan.encoded_len());
        assert_eq!(plan.node_count_hint(), 2);
    }

    #[test]
    #[should_panic(expected = "start-ordered")]
    fn unsorted_compress_input_panics() {
        CompiledPlan::compress(vec![inst(9, 0, 1, 1), inst(3, 0, 1, 1)]);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn overflowing_atom_rejected() {
        CompiledPlan::new(vec![PlanAtom::Periodic {
            template: inst(u64::MAX - 5, 0, 1, 1),
            period: TimeDelta(10),
            repeats: 2,
        }]);
    }

    #[test]
    fn first_cross_shard_start_is_the_static_horizon() {
        use crate::shard::Partition;
        // Nodes 0..4 in shard 0, 4..8 in shard 1.
        let p = Partition::even(8, 2);
        let plan = CompiledPlan::new(vec![
            PlanAtom::Periodic {
                template: inst(10, 0, 1, 1), // shard-local forever
                period: TimeDelta(50),
                repeats: 100,
            },
            PlanAtom::Literal(inst(70, 5, 6, 1)), // shard-local
            PlanAtom::Periodic {
                template: inst(300, 3, 4, 1), // gateway: crosses the cut
                period: TimeDelta(50),
                repeats: 10,
            },
        ]);
        assert_eq!(plan.first_cross_shard_start(&p), Some(Time(300)));
        // One big shard: nothing ever crosses.
        assert_eq!(plan.first_cross_shard_start(&Partition::even(8, 1)), None);
    }

    #[test]
    fn empty_plan_streams_nothing() {
        let plan = Arc::new(CompiledPlan::compress(Vec::new()));
        assert!(plan.is_empty());
        assert_eq!(plan.stream().count(), 0);
        assert_eq!(plan.materialize().len(), 0);
    }
}
