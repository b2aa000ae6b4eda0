//! Fault injection for crash-safety testing.
//!
//! A [`FaultPlan`] is a list of faults the runtime deliberately inflicts
//! on itself mid-run, so the checkpoint/resume machinery is exercised by
//! the test suite and the bench harness instead of waiting for a real
//! OOM-kill at hour six of a 12M-window run. Its one kind,
//! [`Fault::Crash`], panics the event loop (a distinctive, greppable
//! panic) the first time simulated time reaches `at`; the bench runner's
//! retry loop catches it and resumes from the last good checkpoint,
//! exactly as it would for a genuine worker panic.
//!
//! [`corrupt_file`] damages a file in place (truncated or bit-flipped),
//! so tests can check that the resume path detects the damage via the
//! `RSNP1` checksums and falls back to the previous snapshot.

use crate::time::Time;
use std::path::Path;

/// How [`corrupt_file`] damages a file.
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

    /// Marks every crash at or before `now` as already spent — called on
    /// resume so the fault that killed the previous attempt does not kill
    /// this one at the same instant forever.
    pub fn ack_crashes_before(&mut self, now: Time) {
        for Fault::Crash { at } in &self.faults {
            if *at <= now && !self.spent_crashes.contains(at) {
                self.spent_crashes.push(*at);
            }
        }
    }

    /// Panics with a distinctive message if an unspent crash fault is due
    /// at `now`. The scan calls this once per event.
    pub fn trip_crash(&mut self, now: Time) {
        let due = self.faults.iter().find_map(|Fault::Crash { at }| {
            (*at <= now && !self.spent_crashes.contains(at)).then_some(*at)
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
}

/// Damages `path` in place according to `mode` (tests corrupt snapshots
/// and plan files with it).
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
