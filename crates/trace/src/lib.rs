//! Contact and workload trace formats for the RAPID DTN reproduction.
//!
//! The paper drives its simulator from logs collected on the DieselNet
//! testbed: per-meeting records of "bus-to-bus meeting duration and
//! bandwidth" plus packet-generation logs (§5.1, §5.3). This crate defines
//! the equivalent on-disk representation so traces — whether produced by the
//! synthetic DieselNet generator or written by hand — can be saved, shared
//! and replayed deterministically.
//!
//! # Format
//!
//! A trace file is line-oriented UTF-8 text:
//!
//! ```text
//! RAPIDTRACE v1
//! # comment lines and blank lines are ignored
//! C <day> <time_us> <node_a> <node_b> <bytes> [duration_us]
//! P <day> <time_us> <src> <dst> <bytes>
//! ```
//!
//! `C` records a transfer opportunity: at `time_us` microseconds into `day`,
//! nodes `a` and `b` meet. Without the optional sixth field (or with
//! `duration_us = 0`) the meeting is instantaneous and `bytes` is the whole
//! per-direction opportunity — the paper's edge annotation `(t_e, s_e)`
//! (§3.1). With a positive `duration_us` the record is a *contact window*
//! open for that long, and `bytes` is the per-direction link rate in
//! bytes/second (contact-graph-routing style). Serialization omits the sixth
//! field for instantaneous records, so traces written before windows existed
//! round-trip byte-identically. `P` records a packet creation (the workload
//! tuple `(u, v, s, t)`). Records within a day must be time-ordered;
//! [`parse`] verifies this and rejects malformed input with a line-precise
//! error.

#![forbid(unsafe_code)]

pub mod plan;
pub mod record;
pub mod snapshot;
pub mod wire;

pub use plan::{PlanDecodeError, RecordAtom, RecordPlan};
pub use record::{ContactRecord, PacketRecord, Record};
pub use snapshot::{SnapshotDecodeError, SnapshotReader, SnapshotWriter, SNAPSHOT_MAGIC};
pub use wire::{crc32, write_varint, ByteCursor, WireError};

use std::fmt;

/// Magic header expected on the first non-blank line of a trace file.
pub const HEADER: &str = "RAPIDTRACE v1";

/// A parsed trace: all records, plus derived per-day indices.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// All records in `(day, time)` order.
    pub records: Vec<Record>,
}

impl Trace {
    /// Builds a trace from records, sorting them by `(day, time)` with
    /// contacts before packets at equal timestamps (a packet created at the
    /// exact instant of a meeting does not ride that same meeting — the
    /// paper's contacts are instantaneous events).
    pub fn new(mut records: Vec<Record>) -> Self {
        records.sort_by_key(|r| (r.day(), r.time_us(), r.kind_rank()));
        Self { records }
    }

    /// Days present in this trace, ascending and deduplicated.
    pub fn days(&self) -> Vec<u32> {
        let mut days: Vec<u32> = self.records.iter().map(Record::day).collect();
        days.sort_unstable();
        days.dedup();
        days
    }

    /// All contact records for `day`, in time order.
    pub fn contacts_on(&self, day: u32) -> Vec<ContactRecord> {
        self.records
            .iter()
            .filter_map(|r| match r {
                Record::Contact(c) if c.day == day => Some(*c),
                _ => None,
            })
            .collect()
    }

    /// The set of node ids appearing anywhere in the trace, ascending.
    pub fn node_ids(&self) -> Vec<u32> {
        let mut ids = Vec::new();
        for r in &self.records {
            match r {
                Record::Contact(c) => {
                    ids.push(c.a);
                    ids.push(c.b);
                }
                Record::Packet(p) => {
                    ids.push(p.src);
                    ids.push(p.dst);
                }
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Serializes the trace to the text format, including the header.
    pub fn to_string_format(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.records.len() * 32 + 32);
        out.push_str(HEADER);
        out.push('\n');
        for r in &self.records {
            match r {
                Record::Contact(c) if c.duration_us > 0 => {
                    writeln!(
                        out,
                        "C {} {} {} {} {} {}",
                        c.day, c.time_us, c.a, c.b, c.bytes, c.duration_us
                    )
                    .expect("writing to String cannot fail");
                }
                Record::Contact(c) => {
                    writeln!(out, "C {} {} {} {} {}", c.day, c.time_us, c.a, c.b, c.bytes)
                        .expect("writing to String cannot fail");
                }
                Record::Packet(p) => {
                    writeln!(
                        out,
                        "P {} {} {} {} {}",
                        p.day, p.time_us, p.src, p.dst, p.bytes
                    )
                    .expect("writing to String cannot fail");
                }
            }
        }
        out
    }
}

/// Error produced by [`parse`], carrying the 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line (0 = file-level problem).
    pub line: usize,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

/// The specific reason a trace failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The `RAPIDTRACE v1` header is missing or wrong.
    BadHeader,
    /// The record tag was not `C` or `P`.
    UnknownTag(String),
    /// A record had the wrong number of fields.
    FieldCount {
        /// Fields the record type requires.
        expected: usize,
        /// Fields actually present.
        found: usize,
    },
    /// A numeric field failed to parse.
    BadNumber(String),
    /// A contact connects a node to itself.
    SelfContact,
    /// A packet is addressed to its own source.
    SelfPacket,
    /// Records were not in non-decreasing `(day, time)` order.
    OutOfOrder,
    /// The underlying reader failed (streaming parse only).
    Io(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ParseErrorKind::BadHeader => {
                write!(f, "line {}: expected header `{HEADER}`", self.line)
            }
            ParseErrorKind::UnknownTag(t) => {
                write!(f, "line {}: unknown record tag `{t}`", self.line)
            }
            ParseErrorKind::FieldCount { expected, found } => write!(
                f,
                "line {}: expected {expected} fields, found {found}",
                self.line
            ),
            ParseErrorKind::BadNumber(s) => {
                write!(f, "line {}: invalid number `{s}`", self.line)
            }
            ParseErrorKind::SelfContact => {
                write!(f, "line {}: contact connects a node to itself", self.line)
            }
            ParseErrorKind::SelfPacket => {
                write!(f, "line {}: packet addressed to its source", self.line)
            }
            ParseErrorKind::OutOfOrder => write!(
                f,
                "line {}: records out of time order within a day",
                self.line
            ),
            ParseErrorKind::Io(e) => write!(f, "line {}: read failed: {e}", self.line),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses trace text into a [`Trace`].
pub fn parse(text: &str) -> Result<Trace, ParseError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));

    match lines.next() {
        Some((_, l)) if l == HEADER => {}
        Some((n, _)) => {
            return Err(ParseError {
                line: n,
                kind: ParseErrorKind::BadHeader,
            })
        }
        None => {
            return Err(ParseError {
                line: 0,
                kind: ParseErrorKind::BadHeader,
            })
        }
    }

    let mut records = Vec::new();
    let mut last_seen: Option<(u32, u64)> = None;
    for (line_no, line) in lines {
        let record = parse_record_line(line, line_no)?;
        check_order(&record, &mut last_seen, line_no)?;
        records.push(record);
    }
    Ok(Trace { records })
}

/// Parses one non-blank, non-comment record line.
fn parse_record_line(line: &str, line_no: usize) -> Result<Record, ParseError> {
    let mut fields = line.split_ascii_whitespace();
    let tag = fields.next().expect("non-empty line has a first token");
    let rest: Vec<&str> = fields.collect();
    match tag {
        "C" => {
            // 5 fields = instantaneous; 6 adds the window duration.
            let expected = if rest.len() == 6 { 6 } else { 5 };
            let v = parse_numbers(&rest, expected, line_no)?;
            if v[2] == v[3] {
                return Err(ParseError {
                    line: line_no,
                    kind: ParseErrorKind::SelfContact,
                });
            }
            Ok(Record::Contact(ContactRecord {
                day: v[0] as u32,
                time_us: v[1],
                a: v[2] as u32,
                b: v[3] as u32,
                bytes: v[4],
                duration_us: v.get(5).copied().unwrap_or(0),
            }))
        }
        "P" => {
            let v = parse_numbers(&rest, 5, line_no)?;
            if v[2] == v[3] {
                return Err(ParseError {
                    line: line_no,
                    kind: ParseErrorKind::SelfPacket,
                });
            }
            Ok(Record::Packet(PacketRecord {
                day: v[0] as u32,
                time_us: v[1],
                src: v[2] as u32,
                dst: v[3] as u32,
                bytes: v[4],
            }))
        }
        other => Err(ParseError {
            line: line_no,
            kind: ParseErrorKind::UnknownTag(other.to_string()),
        }),
    }
}

/// Enforces non-decreasing `(day, time)` order across records.
fn check_order(
    record: &Record,
    last_seen: &mut Option<(u32, u64)>,
    line_no: usize,
) -> Result<(), ParseError> {
    let key = (record.day(), record.time_us());
    if let Some(prev) = *last_seen {
        if key < prev {
            return Err(ParseError {
                line: line_no,
                kind: ParseErrorKind::OutOfOrder,
            });
        }
    }
    *last_seen = Some(key);
    Ok(())
}

/// Streams records from a reader one line at a time — the trace is never
/// materialized, so replaying a multi-gigabyte contact plan needs only the
/// reader's buffer. Yields records in file order after validating the
/// header, field syntax and `(day, time)` ordering exactly like [`parse`];
/// the first error ends the stream.
pub fn stream_records<R: std::io::BufRead>(reader: R) -> RecordStream<R> {
    RecordStream {
        lines: reader.lines(),
        line_no: 0,
        header_seen: false,
        last_seen: None,
        failed: false,
    }
}

/// Lazy record iterator built by [`stream_records`].
#[derive(Debug)]
pub struct RecordStream<R: std::io::BufRead> {
    lines: std::io::Lines<R>,
    line_no: usize,
    header_seen: bool,
    last_seen: Option<(u32, u64)>,
    failed: bool,
}

impl<R: std::io::BufRead> Iterator for RecordStream<R> {
    type Item = Result<Record, ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            let line = match self.lines.next() {
                None if self.header_seen => return None,
                None => {
                    self.failed = true;
                    return Some(Err(ParseError {
                        line: 0,
                        kind: ParseErrorKind::BadHeader,
                    }));
                }
                Some(Err(e)) => {
                    self.failed = true;
                    return Some(Err(ParseError {
                        line: self.line_no + 1,
                        kind: ParseErrorKind::Io(e.to_string()),
                    }));
                }
                Some(Ok(line)) => line,
            };
            self.line_no += 1;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if !self.header_seen {
                if line == HEADER {
                    self.header_seen = true;
                    continue;
                }
                self.failed = true;
                return Some(Err(ParseError {
                    line: self.line_no,
                    kind: ParseErrorKind::BadHeader,
                }));
            }
            let result = parse_record_line(line, self.line_no)
                .and_then(|r| check_order(&r, &mut self.last_seen, self.line_no).map(|()| r));
            if result.is_err() {
                self.failed = true;
            }
            return Some(result);
        }
    }
}

fn parse_numbers(fields: &[&str], expected: usize, line_no: usize) -> Result<Vec<u64>, ParseError> {
    if fields.len() != expected {
        return Err(ParseError {
            line: line_no,
            kind: ParseErrorKind::FieldCount {
                expected,
                found: fields.len(),
            },
        });
    }
    fields
        .iter()
        .map(|s| {
            s.parse::<u64>().map_err(|_| ParseError {
                line: line_no,
                kind: ParseErrorKind::BadNumber((*s).to_string()),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::new(vec![
            Record::Packet(PacketRecord {
                day: 0,
                time_us: 50,
                src: 1,
                dst: 2,
                bytes: 1024,
            }),
            Record::Contact(ContactRecord {
                day: 0,
                time_us: 100,
                a: 1,
                b: 2,
                bytes: 4096,
                duration_us: 0,
            }),
            Record::Contact(ContactRecord {
                day: 1,
                time_us: 10,
                a: 2,
                b: 3,
                bytes: 2048,
                duration_us: 0,
            }),
        ])
    }

    #[test]
    fn round_trip() {
        let t = sample();
        let text = t.to_string_format();
        let back = parse(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn new_sorts_records() {
        let t = Trace::new(vec![
            Record::Contact(ContactRecord {
                day: 1,
                time_us: 5,
                a: 1,
                b: 2,
                bytes: 1,
                duration_us: 0,
            }),
            Record::Contact(ContactRecord {
                day: 0,
                time_us: 9,
                a: 1,
                b: 2,
                bytes: 1,
                duration_us: 0,
            }),
        ]);
        assert_eq!(t.records[0].day(), 0);
    }

    #[test]
    fn contacts_sort_before_packets_at_same_instant() {
        let t = Trace::new(vec![
            Record::Packet(PacketRecord {
                day: 0,
                time_us: 5,
                src: 1,
                dst: 2,
                bytes: 1,
            }),
            Record::Contact(ContactRecord {
                day: 0,
                time_us: 5,
                a: 1,
                b: 2,
                bytes: 1,
                duration_us: 0,
            }),
        ]);
        assert!(matches!(t.records[0], Record::Contact(_)));
    }

    #[test]
    fn day_and_node_indices() {
        let t = sample();
        assert_eq!(t.days(), vec![0, 1]);
        assert_eq!(t.node_ids(), vec![1, 2, 3]);
        assert_eq!(t.contacts_on(0).len(), 1);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = format!("\n# hi\n{HEADER}\n\n# mid\nC 0 1 1 2 10\n");
        let t = parse(&text).unwrap();
        assert_eq!(t.records.len(), 1);
    }

    #[test]
    fn missing_header_rejected() {
        let err = parse("C 0 1 1 2 10\n").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::BadHeader);
        let err = parse("").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::BadHeader);
    }

    #[test]
    fn unknown_tag_rejected() {
        let err = parse(&format!("{HEADER}\nX 0 1 1 2 10\n")).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnknownTag("X".into()));
        assert_eq!(err.line, 2);
    }

    #[test]
    fn field_count_enforced() {
        let err = parse(&format!("{HEADER}\nC 0 1 1 2\n")).unwrap_err();
        assert_eq!(
            err.kind,
            ParseErrorKind::FieldCount {
                expected: 5,
                found: 4
            }
        );
    }

    #[test]
    fn bad_number_reported() {
        let err = parse(&format!("{HEADER}\nC 0 x 1 2 10\n")).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::BadNumber("x".into()));
    }

    #[test]
    fn self_contact_and_self_packet_rejected() {
        let err = parse(&format!("{HEADER}\nC 0 1 2 2 10\n")).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::SelfContact);
        let err = parse(&format!("{HEADER}\nP 0 1 2 2 10\n")).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::SelfPacket);
    }

    #[test]
    fn out_of_order_rejected() {
        let err = parse(&format!("{HEADER}\nC 0 10 1 2 5\nC 0 4 1 2 5\n")).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::OutOfOrder);
        let err = parse(&format!("{HEADER}\nC 1 10 1 2 5\nC 0 40 1 2 5\n")).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::OutOfOrder);
    }

    #[test]
    fn windowed_contact_round_trip() {
        let t = Trace::new(vec![Record::Contact(ContactRecord {
            day: 2,
            time_us: 10,
            a: 4,
            b: 5,
            bytes: 2048, // bytes/sec while the window is open
            duration_us: 3_000_000,
        })]);
        let text = t.to_string_format();
        assert!(text.contains("C 2 10 4 5 2048 3000000"), "{text}");
        assert_eq!(parse(&text).unwrap(), t);
    }

    #[test]
    fn five_field_contact_parses_as_instantaneous() {
        let t = parse(&format!("{HEADER}\nC 0 1 1 2 10\n")).unwrap();
        match t.records[0] {
            Record::Contact(c) => assert_eq!(c.duration_us, 0),
            _ => panic!("expected contact"),
        }
        // And serializing it back omits the sixth field.
        assert!(t.to_string_format().contains("C 0 1 1 2 10\n"));
    }

    #[test]
    fn seven_field_contact_rejected() {
        let err = parse(&format!("{HEADER}\nC 0 1 1 2 10 5 9\n")).unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::FieldCount { .. }));
    }

    #[test]
    fn stream_records_matches_parse() {
        let text = sample().to_string_format();
        let streamed: Vec<Record> = stream_records(text.as_bytes())
            .map(|r| r.expect("valid trace"))
            .collect();
        assert_eq!(streamed, parse(&text).unwrap().records);
    }

    #[test]
    fn stream_records_reports_errors_and_stops() {
        let text = format!("{HEADER}\nC 0 10 1 2 5\nC 0 4 1 2 5\nC 0 20 1 2 5\n");
        let mut s = stream_records(text.as_bytes());
        assert!(s.next().unwrap().is_ok());
        let err = s.next().unwrap().unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::OutOfOrder);
        assert_eq!(err.line, 3);
        assert!(s.next().is_none(), "stream is fused after an error");
    }

    #[test]
    fn stream_records_requires_header() {
        let mut s = stream_records("C 0 1 1 2 10\n".as_bytes());
        assert_eq!(
            s.next().unwrap().unwrap_err().kind,
            ParseErrorKind::BadHeader
        );
        let mut empty = stream_records("".as_bytes());
        assert_eq!(
            empty.next().unwrap().unwrap_err().kind,
            ParseErrorKind::BadHeader
        );
    }

    #[test]
    fn display_messages_are_line_precise() {
        let err = parse(&format!("{HEADER}\nC 0 1 1 2\n")).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
    }
}
