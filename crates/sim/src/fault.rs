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
//! * [`Fault::CorruptSnapshot`] — the checkpoint file with sequence
//!   number `seq` is damaged right after it is written (truncated or
//!   bit-flipped), so the resume path must detect the damage via the
//!   `RSNP1` checksums and fall back to the previous snapshot.

use crate::time::Time;
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
