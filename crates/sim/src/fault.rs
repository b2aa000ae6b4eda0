//! Fault injection for crash-safety testing.
//!
//! A [`FaultPlan`] is a list of faults the runtime deliberately inflicts
//! on itself mid-run, so the checkpoint/resume machinery is exercised by
//! the test suite and the bench harness instead of waiting for a real
//! OOM-kill at hour six of a 12M-window run:
//!
//! * [`Fault::Crash`] — the event loop panics (a distinctive, greppable
//!   panic) the first time simulated time reaches `at`. The bench
//!   runner's retry loop catches it and resumes from the last good
//!   checkpoint, exactly as it would for a genuine worker panic.
//! * [`Fault::AbortWindow`] — a durative contact window is cut short at
//!   `at`, closing with only the capacity accrued by then (the same
//!   semantics as a churn interruption, but aimed at one window). This
//!   perturbs the schedule the way a flaky radio would, while keeping
//!   the run fully deterministic for a given plan.
//! * [`Fault::CorruptSnapshot`] — the checkpoint file with sequence
//!   number `seq` is damaged right after it is written (truncated or
//!   bit-flipped), so the resume path must detect the damage via the
//!   `RSNP1` checksums and fall back to the previous snapshot.
//!
//! Plans are either scheduled explicitly ([`FaultPlan::scheduled`]) or
//! drawn from a seeded RNG substream ([`FaultPlan::seeded`]) so fuzz-style
//! CI jobs stay reproducible.

use crate::event::WindowIdx;
use crate::time::Time;
use dtn_stats::stream;
use rand::Rng;
use std::path::Path;

/// How [`Fault::CorruptSnapshot`] damages the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptMode {
    /// Drop the second half of the file (a partial write / torn rename).
    Truncate,
    /// Flip one bit in the middle of the file (media corruption).
    BitFlip,
}

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic the event loop when simulated time first reaches `at`.
    Crash {
        /// Simulated instant of the crash.
        at: Time,
    },
    /// Close durative window `idx` at `at` with the capacity accrued so
    /// far (ignored if the window is instantaneous or `at` is outside its
    /// span).
    AbortWindow {
        /// Pull-order index of the window (the engine's `WindowIdx`).
        idx: WindowIdx,
        /// When to cut the window short.
        at: Time,
    },
    /// Damage checkpoint file `seq` immediately after it is written.
    CorruptSnapshot {
        /// Sequence number of the snapshot to damage.
        seq: u64,
        /// How to damage it.
        mode: CorruptMode,
    },
}

/// A set of faults to inject into one run. Crash faults are one-shot:
/// once tripped (or once resumed past), they do not fire again, which is
/// what lets a resume loop make progress past the fault it crashed on.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    /// Crash faults already tripped (or skipped on resume).
    spent_crashes: Vec<Time>,
}

impl FaultPlan {
    /// A plan with exactly the given faults.
    pub fn scheduled(faults: Vec<Fault>) -> Self {
        Self {
            faults,
            spent_crashes: Vec::new(),
        }
    }

    /// A reproducible random plan: `crashes` crash instants drawn
    /// uniformly from the middle 80% of `[0, horizon]` on the
    /// `fault-plan` substream of `seed`.
    pub fn seeded(seed: u64, horizon: Time, crashes: usize) -> Self {
        let mut rng = stream(seed, "fault-plan");
        let mut faults: Vec<Fault> = (0..crashes)
            .map(|_| {
                let f = 0.1 + 0.8 * rng.gen::<f64>();
                Fault::Crash {
                    at: Time((horizon.0 as f64 * f) as u64),
                }
            })
            .collect();
        faults.sort_by_key(|f| match f {
            Fault::Crash { at } => at.0,
            _ => unreachable!("seeded plans only draw crashes"),
        });
        Self {
            faults,
            spent_crashes: Vec::new(),
        }
    }

    /// The faults in the plan.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Marks every crash at or before `now` as already spent — called on
    /// resume so the fault that killed the previous attempt does not kill
    /// this one at the same instant forever.
    pub fn ack_crashes_before(&mut self, now: Time) {
        for f in &self.faults {
            if let Fault::Crash { at } = f {
                if *at <= now && !self.spent_crashes.contains(at) {
                    self.spent_crashes.push(*at);
                }
            }
        }
    }

    /// Panics with a distinctive message if an unspent crash fault is due
    /// at `now`. The scan calls this once per event.
    pub fn trip_crash(&mut self, now: Time) {
        let due = self.faults.iter().find_map(|f| match f {
            Fault::Crash { at } if *at <= now && !self.spent_crashes.contains(at) => Some(*at),
            _ => None,
        });
        if let Some(at) = due {
            self.spent_crashes.push(at);
            crate::diag::warn(
                "fault-crash",
                "injected crash fault tripping",
                &[("at_us", at.0.to_string()), ("now_us", now.0.to_string())],
            );
            panic!(
                "injected crash fault at {at} (sim time {now}) [diag=fault-crash at_us={}]",
                at.0
            );
        }
    }

    /// The abort instant for window `idx`, if one is planned inside
    /// `(start, end)`. The scan substitutes this for the window's
    /// natural close when scheduling its `ContactEnd`.
    pub fn abort_for(&self, idx: WindowIdx, start: Time, end: Time) -> Option<Time> {
        self.faults.iter().find_map(|f| match f {
            Fault::AbortWindow { idx: i, at } if *i == idx && *at > start && *at < end => Some(*at),
            _ => None,
        })
    }

    /// How checkpoint `seq` should be damaged, if a corruption fault
    /// targets it.
    pub fn corruption_for(&self, seq: u64) -> Option<CorruptMode> {
        self.faults.iter().find_map(|f| match f {
            Fault::CorruptSnapshot { seq: s, mode } if *s == seq => Some(*mode),
            _ => None,
        })
    }
}

/// Damages `path` in place according to `mode` — the write half of
/// [`Fault::CorruptSnapshot`], also handy for tests that corrupt plan
/// files.
pub fn corrupt_file(path: &Path, mode: CorruptMode) -> std::io::Result<()> {
    let bytes = std::fs::read(path)?;
    let damaged = corrupt_bytes(bytes, mode);
    std::fs::write(path, damaged)
}

/// The pure core of [`corrupt_file`].
pub fn corrupt_bytes(mut bytes: Vec<u8>, mode: CorruptMode) -> Vec<u8> {
    match mode {
        CorruptMode::Truncate => {
            bytes.truncate(bytes.len() / 2);
        }
        CorruptMode::BitFlip => {
            if !bytes.is_empty() {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x10;
            }
        }
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible_and_sorted() {
        let horizon = Time::from_secs(1000);
        let a = FaultPlan::seeded(7, horizon, 4);
        let b = FaultPlan::seeded(7, horizon, 4);
        assert_eq!(a.faults(), b.faults());
        let times: Vec<u64> = a
            .faults()
            .iter()
            .map(|f| match f {
                Fault::Crash { at } => at.0,
                _ => panic!("seeded plans only contain crashes"),
            })
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(times
            .iter()
            .all(|&t| t >= horizon.0 / 10 && t <= horizon.0 * 9 / 10));
        let c = FaultPlan::seeded(8, horizon, 4);
        assert_ne!(a.faults(), c.faults(), "different seeds differ");
    }

    #[test]
    #[should_panic(expected = "injected crash fault")]
    fn crash_trips_when_due() {
        let mut plan = FaultPlan::scheduled(vec![Fault::Crash {
            at: Time::from_secs(10),
        }]);
        plan.trip_crash(Time::from_secs(9)); // not yet
        plan.trip_crash(Time::from_secs(10));
    }

    #[test]
    fn acked_crashes_do_not_retrip() {
        let mut plan = FaultPlan::scheduled(vec![Fault::Crash {
            at: Time::from_secs(10),
        }]);
        plan.ack_crashes_before(Time::from_secs(10));
        plan.trip_crash(Time::from_secs(11)); // must not panic
    }

    #[test]
    fn abort_only_inside_the_window_span() {
        let plan = FaultPlan::scheduled(vec![Fault::AbortWindow {
            idx: 3,
            at: Time::from_secs(50),
        }]);
        let (s, e) = (Time::from_secs(40), Time::from_secs(60));
        assert_eq!(plan.abort_for(3, s, e), Some(Time::from_secs(50)));
        assert_eq!(plan.abort_for(2, s, e), None, "other windows untouched");
        assert_eq!(
            plan.abort_for(3, Time::from_secs(55), e),
            None,
            "abort before the start is ignored"
        );
    }

    #[test]
    fn corrupt_bytes_modes() {
        let original: Vec<u8> = (0..100u8).collect();
        let truncated = corrupt_bytes(original.clone(), CorruptMode::Truncate);
        assert_eq!(truncated.len(), 50);
        let flipped = corrupt_bytes(original.clone(), CorruptMode::BitFlip);
        assert_eq!(flipped.len(), 100);
        assert_ne!(flipped, original);
        assert_eq!(
            flipped
                .iter()
                .zip(&original)
                .filter(|(a, b)| a != b)
                .count(),
            1
        );
    }
}
