//! Streaming scenario sources: the engine's pull-based inputs.
//!
//! The seed engine received a fully materialized [`Schedule`] and
//! [`Workload`] and pushed every window and packet creation into the event
//! queue up front — which caps scenario size at what fits in RAM (times the
//! worker count, since every run owned its own deep clone). These traits
//! invert the flow: the engine *pulls* contact windows and packet creations
//! lazily, in event order, from whatever produces them — a materialized
//! schedule behind an [`Arc`] (zero per-run clones, byte-identical to the
//! seed figures), a mobility generator drawing windows on demand from a
//! per-run RNG substream, or a compiled plan's cursor. Scenario size
//! is then bounded by the *open* state (buffers, in-flight packets), not the
//! full contact plan.
//!
//! # Contract
//!
//! Sources must yield items in nondecreasing time order (`ContactWindow::
//! start` / `PacketSpec::time`) and only reference nodes below the run's
//! `SimConfig::nodes`; the engine asserts both as it pulls. Any
//! `Iterator` with the right item type is a source via the blanket impls,
//! so `schedule.windows().iter().copied()` and generator iterators plug in
//! directly.

use crate::contact::{ContactWindow, Schedule};
use crate::workload::{PacketSpec, Workload};
use std::sync::Arc;

/// A pull-based stream of contact windows in nondecreasing `start` order.
pub trait ContactSource {
    /// The next window, or `None` when the scenario has no more contacts.
    fn next_window(&mut self) -> Option<ContactWindow>;
}

/// A pull-based stream of packet creations in nondecreasing `time` order.
pub trait WorkloadSource {
    /// The next packet spec, or `None` when the workload is exhausted.
    fn next_packet(&mut self) -> Option<PacketSpec>;
}

/// Every window iterator is a contact source.
impl<I: Iterator<Item = ContactWindow>> ContactSource for I {
    fn next_window(&mut self) -> Option<ContactWindow> {
        self.next()
    }
}

/// Every packet-spec iterator is a workload source.
impl<I: Iterator<Item = PacketSpec>> WorkloadSource for I {
    fn next_packet(&mut self) -> Option<PacketSpec> {
        self.next()
    }
}

/// A cursor over a shared, immutable [`Schedule`].
///
/// Many concurrent runs can stream the same schedule through their own
/// cursors — the windows are read in place behind the [`Arc`], never
/// cloned. This is the materialized impl of [`ContactSource`] that keeps
/// the seed figures byte-identical.
#[derive(Debug, Clone)]
pub struct ScheduleStream {
    schedule: Arc<Schedule>,
    cursor: usize,
}

impl ScheduleStream {
    /// Streams `schedule` from its first window.
    pub fn new(schedule: Arc<Schedule>) -> Self {
        Self {
            schedule,
            cursor: 0,
        }
    }
}

impl Iterator for ScheduleStream {
    type Item = ContactWindow;

    fn next(&mut self) -> Option<ContactWindow> {
        let w = self.schedule.windows().get(self.cursor).copied();
        self.cursor += w.is_some() as usize;
        w
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.schedule.len() - self.cursor;
        (left, Some(left))
    }
}

/// A cursor over a shared, immutable [`Workload`] — the materialized impl
/// of [`WorkloadSource`].
#[derive(Debug, Clone)]
pub struct WorkloadStream {
    workload: Arc<Workload>,
    cursor: usize,
}

impl WorkloadStream {
    /// Streams `workload` from its first packet.
    pub fn new(workload: Arc<Workload>) -> Self {
        Self {
            workload,
            cursor: 0,
        }
    }
}

impl Iterator for WorkloadStream {
    type Item = PacketSpec;

    fn next(&mut self) -> Option<PacketSpec> {
        let s = self.workload.specs().get(self.cursor).copied();
        self.cursor += s.is_some() as usize;
        s
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.workload.len() - self.cursor;
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contact::Contact;
    use crate::time::Time;
    use crate::types::NodeId;

    #[test]
    fn schedule_stream_yields_all_windows_in_order() {
        let schedule = Arc::new(Schedule::new(vec![
            Contact::new(Time::from_secs(5), NodeId(0), NodeId(1), 10),
            Contact::new(Time::from_secs(1), NodeId(1), NodeId(2), 20),
        ]));
        let mut s = ScheduleStream::new(Arc::clone(&schedule));
        assert_eq!(s.size_hint(), (2, Some(2)));
        assert_eq!(s.next_window().unwrap().start, Time::from_secs(1));
        assert_eq!(s.next_window().unwrap().start, Time::from_secs(5));
        assert_eq!(s.next_window(), None);
        assert_eq!(s.next_window(), None, "fused at the end");
        // A second cursor over the same Arc starts fresh.
        let again: Vec<_> = ScheduleStream::new(schedule).collect();
        assert_eq!(again.len(), 2);
    }

    #[test]
    fn workload_stream_yields_all_specs_in_order() {
        let workload = Arc::new(Workload::new(vec![
            PacketSpec {
                time: Time::from_secs(9),
                src: NodeId(0),
                dst: NodeId(1),
                size_bytes: 1,
            },
            PacketSpec {
                time: Time::from_secs(2),
                src: NodeId(1),
                dst: NodeId(0),
                size_bytes: 2,
            },
        ]));
        let mut s = WorkloadStream::new(workload);
        assert_eq!(s.size_hint(), (2, Some(2)));
        assert_eq!(s.next_packet().unwrap().time, Time::from_secs(2));
        assert_eq!(s.next_packet().unwrap().time, Time::from_secs(9));
        assert_eq!(s.next_packet(), None);
    }

    #[test]
    fn plain_iterators_are_sources() {
        let windows = [ContactWindow::instant(
            Time::from_secs(1),
            NodeId(0),
            NodeId(1),
            7,
        )];
        let mut src = windows.iter().copied();
        assert_eq!(ContactSource::next_window(&mut src), Some(windows[0]));
        assert_eq!(ContactSource::next_window(&mut src), None);
    }
}
