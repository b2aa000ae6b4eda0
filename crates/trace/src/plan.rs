//! The `RPLN1` codec: a compact binary form for compressed contact plans.
//!
//! A materialized contact plan spends one full [`ContactRecord`] per
//! meeting even when the plan is mostly *regular* — the same pair meeting
//! again and again with the same opportunity. A [`RecordPlan`] stores that
//! regularity factored out, as a sequence of [`RecordAtom`]s:
//!
//! * [`RecordAtom::Literal`] — one window, stored verbatim;
//! * [`RecordAtom::Periodic`] — a template window repeated `repeats` times
//!   at a fixed `period_us` (phase = the template's `time_us`, jitter-free,
//!   per-repeat capacity = the template's `bytes`);
//! * [`RecordAtom::DeltaRun`] — a template window plus one start-time
//!   delta per further repeat: the irregular-gap run, still one small
//!   integer per meeting instead of a whole record.
//!
//! This module is only the record-level data model and its serialization
//! ([`RecordPlan::to_bytes`] / [`RecordPlan::from_bytes`]). Building atoms
//! from a window stream and expanding them back — including the tie rule
//! that keeps the round trip exact — is `dtn-sim`'s `CompiledPlan`, which
//! converts to and from this form.

use crate::record::ContactRecord;
use crate::wire::{crc32, write_varint, ByteCursor, WireError};

/// One atom of a compressed contact plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordAtom {
    /// A single literal window.
    Literal(ContactRecord),
    /// `repeats` copies of `template`, the k-th starting at
    /// `template.time_us + k * period_us` (k in `0..repeats`), all within
    /// the template's day. `repeats >= 2`.
    Periodic {
        /// The first window of the train; its `time_us` is the phase.
        template: ContactRecord,
        /// Start-to-start gap between consecutive repeats, microseconds.
        period_us: u64,
        /// Total number of windows, including the template's.
        repeats: u32,
    },
    /// `deltas_us.len() + 1` windows: the template, then one more per
    /// delta, each starting `deltas_us[k]` after its predecessor.
    DeltaRun {
        /// The first window of the run.
        template: ContactRecord,
        /// Consecutive start-to-start gaps, microseconds.
        deltas_us: Vec<u64>,
    },
}

impl RecordAtom {
    /// Day this atom's windows belong to.
    pub fn day(&self) -> u32 {
        self.template().day
    }

    /// Start of the atom's first window, microseconds into its day.
    pub fn first_time_us(&self) -> u64 {
        self.template().time_us
    }

    /// The first window (all repeats share its endpoints, bytes and
    /// duration).
    pub fn template(&self) -> &ContactRecord {
        match self {
            RecordAtom::Literal(t)
            | RecordAtom::Periodic { template: t, .. }
            | RecordAtom::DeltaRun { template: t, .. } => t,
        }
    }

    /// Number of windows this atom expands to.
    pub fn window_count(&self) -> u64 {
        match self {
            RecordAtom::Literal(_) => 1,
            RecordAtom::Periodic { repeats, .. } => u64::from(*repeats),
            RecordAtom::DeltaRun { deltas_us, .. } => deltas_us.len() as u64 + 1,
        }
    }
}

/// A compressed contact plan: atoms in `(day, first time)` order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordPlan {
    atoms: Vec<RecordAtom>,
}

impl RecordPlan {
    /// Builds a plan from atoms, stable-sorting them by
    /// `(day, first time)` — the canonical order expansion ties break on.
    pub fn new(mut atoms: Vec<RecordAtom>) -> Self {
        atoms.sort_by_key(|a| (a.day(), a.first_time_us()));
        Self { atoms }
    }

    /// The atoms, in canonical order.
    pub fn atoms(&self) -> &[RecordAtom] {
        &self.atoms
    }

    /// Number of atoms.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// Total windows across all atoms.
    pub fn window_count(&self) -> u64 {
        self.atoms.iter().map(RecordAtom::window_count).sum()
    }

    /// Serializes the plan to the compact binary format: the `RPLN1` magic,
    /// then a varint body length and a CRC32 of the body, then the body
    /// (varint atom count followed by the atoms). The length framing and
    /// checksum let [`RecordPlan::from_bytes`] reject truncated or
    /// bit-flipped files with an error naming the byte offset instead of
    /// decoding garbage.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(8 + self.atoms.len() * 12);
        write_varint(&mut body, self.atoms.len() as u64);
        for atom in &self.atoms {
            let t = atom.template();
            body.push(match atom {
                RecordAtom::Literal(_) => 0,
                RecordAtom::Periodic { .. } => 1,
                RecordAtom::DeltaRun { .. } => 2,
            });
            for field in [
                u64::from(t.day),
                t.time_us,
                u64::from(t.a),
                u64::from(t.b),
                t.bytes,
                t.duration_us,
            ] {
                write_varint(&mut body, field);
            }
            match atom {
                RecordAtom::Literal(_) => {}
                RecordAtom::Periodic {
                    period_us, repeats, ..
                } => {
                    write_varint(&mut body, *period_us);
                    write_varint(&mut body, u64::from(*repeats));
                }
                RecordAtom::DeltaRun { deltas_us, .. } => {
                    write_varint(&mut body, deltas_us.len() as u64);
                    for &d in deltas_us {
                        write_varint(&mut body, d);
                    }
                }
            }
        }
        let mut out = Vec::with_capacity(MAGIC.len() + 8 + body.len());
        out.extend_from_slice(MAGIC);
        write_varint(&mut out, body.len() as u64);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Size of the binary encoding, bytes — the plan-representation size
    /// the compression metrics compare against `window_count() *` the
    /// per-record text/struct cost.
    pub fn encoded_len(&self) -> usize {
        self.to_bytes().len()
    }

    /// Parses a plan previously written by [`RecordPlan::to_bytes`].
    ///
    /// Every failure mode — missing magic, a truncated file, a length that
    /// disagrees with the bytes present, a checksum mismatch from a flipped
    /// bit, a malformed atom — returns a descriptive [`PlanDecodeError`]
    /// naming the byte offset; nothing panics on hostile input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PlanDecodeError> {
        let framed = bytes.strip_prefix(MAGIC).ok_or(PlanDecodeError::BadMagic)?;
        let base = MAGIC.len();
        let mut framing = ByteCursor::new(framed);
        let declared = framing.varint().map_err(wire_at(base))?;
        let expected = framing.u32_le().map_err(wire_at(base))?;
        let body_offset = base + framing.offset();
        if u64::try_from(framing.remaining()).expect("usize fits u64") < declared {
            return Err(PlanDecodeError::BadLength {
                declared,
                available: framing.remaining(),
                offset: body_offset,
            });
        }
        let body = framing
            .take(declared as usize)
            .expect("length checked above");
        if !framing.is_empty() {
            return Err(PlanDecodeError::TrailingBytes {
                offset: base + framing.offset(),
            });
        }
        let found = crc32(body);
        if found != expected {
            return Err(PlanDecodeError::BadChecksum {
                expected,
                found,
                offset: body_offset,
            });
        }

        let mut cursor = ByteCursor::new(body);
        let at = wire_at(body_offset);
        let count = cursor.varint().map_err(at)?;
        let mut atoms = Vec::new();
        for _ in 0..count {
            let tag_offset = body_offset + cursor.offset();
            let tag = cursor.byte().map_err(at)?;
            let template = ContactRecord {
                day: cursor.varint().map_err(at)? as u32,
                time_us: cursor.varint().map_err(at)?,
                a: cursor.varint().map_err(at)? as u32,
                b: cursor.varint().map_err(at)? as u32,
                bytes: cursor.varint().map_err(at)?,
                duration_us: cursor.varint().map_err(at)?,
            };
            atoms.push(match tag {
                0 => RecordAtom::Literal(template),
                1 => RecordAtom::Periodic {
                    template,
                    period_us: cursor.varint().map_err(at)?,
                    repeats: cursor.varint().map_err(at)? as u32,
                },
                2 => {
                    let n = cursor.varint().map_err(at)? as usize;
                    let mut deltas_us = Vec::with_capacity(n.min(1 << 16));
                    for _ in 0..n {
                        deltas_us.push(cursor.varint().map_err(at)?);
                    }
                    RecordAtom::DeltaRun {
                        template,
                        deltas_us,
                    }
                }
                tag => {
                    return Err(PlanDecodeError::BadTag {
                        tag,
                        offset: tag_offset,
                    })
                }
            });
        }
        if !cursor.is_empty() {
            return Err(PlanDecodeError::TrailingBytes {
                offset: body_offset + cursor.offset(),
            });
        }
        Ok(Self::new(atoms))
    }
}

/// Maps a region-relative [`WireError`] to a file-absolute decode error.
fn wire_at(base: usize) -> impl Fn(WireError) -> PlanDecodeError + Copy {
    move |e| match e {
        WireError::Truncated { offset } | WireError::VarintOverflow { offset } => {
            PlanDecodeError::Truncated {
                offset: base + offset,
            }
        }
    }
}

/// Binary-plan magic header.
const MAGIC: &[u8] = b"RPLN1\n";

/// Decode failure for the binary plan format. Every variant except
/// [`PlanDecodeError::BadMagic`] names the byte offset at fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanDecodeError {
    /// The input does not start with the `RPLN1` magic.
    BadMagic,
    /// An atom tag byte was not 0/1/2.
    BadTag {
        /// The unrecognized tag value.
        tag: u8,
        /// Byte offset of the tag.
        offset: usize,
    },
    /// A varint or field ran past the end of the input.
    Truncated {
        /// Byte offset where the failed read started.
        offset: usize,
    },
    /// Bytes remained after the framed body or the declared atom count.
    TrailingBytes {
        /// Byte offset of the first unexpected byte.
        offset: usize,
    },
    /// The header's declared body length exceeds the bytes present — the
    /// signature of a truncated file.
    BadLength {
        /// Body length the header promises.
        declared: u64,
        /// Bytes actually available after the header.
        available: usize,
        /// Byte offset where the body starts.
        offset: usize,
    },
    /// The body failed its CRC32 — a bit flip or partial overwrite.
    BadChecksum {
        /// Checksum recorded in the header.
        expected: u32,
        /// Checksum of the body actually present.
        found: u32,
        /// Byte offset where the body starts.
        offset: usize,
    },
}

impl std::fmt::Display for PlanDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanDecodeError::BadMagic => write!(f, "missing RPLN1 magic"),
            PlanDecodeError::BadTag { tag, offset } => {
                write!(f, "unknown atom tag {tag} at byte offset {offset}")
            }
            PlanDecodeError::Truncated { offset } => {
                write!(f, "plan truncated at byte offset {offset}")
            }
            PlanDecodeError::TrailingBytes { offset } => {
                write!(f, "trailing bytes after plan body at byte offset {offset}")
            }
            PlanDecodeError::BadLength {
                declared,
                available,
                offset,
            } => write!(
                f,
                "plan body at byte offset {offset} declares {declared} bytes \
                 but only {available} are present (truncated file?)"
            ),
            PlanDecodeError::BadChecksum {
                expected,
                found,
                offset,
            } => write!(
                f,
                "plan body at byte offset {offset} fails its checksum: \
                 recorded {expected:#010x}, computed {found:#010x} (corrupted file?)"
            ),
        }
    }
}

impl std::error::Error for PlanDecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(day: u32, time_us: u64, a: u32, b: u32, bytes: u64, duration_us: u64) -> ContactRecord {
        ContactRecord {
            day,
            time_us,
            a,
            b,
            bytes,
            duration_us,
        }
    }

    /// One atom of each kind, with extreme field values in the mix.
    fn sample_plan() -> RecordPlan {
        RecordPlan::new(vec![
            RecordAtom::Periodic {
                template: rec(0, 0, 1, 2, 10, 0),
                period_us: 5,
                repeats: 3,
            },
            RecordAtom::DeltaRun {
                template: rec(0, 3, 3, 4, u64::MAX, 5_000_000),
                deltas_us: vec![8, 0, 300],
            },
            RecordAtom::Literal(rec(0, 7, 5, 6, 1, 0)),
            RecordAtom::Literal(rec(1, 30, 1, 2, 10, 0)),
        ])
    }

    #[test]
    fn binary_round_trip() {
        let plan = sample_plan();
        assert_eq!(plan.atom_count(), 4);
        assert_eq!(plan.window_count(), 3 + 4 + 1 + 1);
        let bytes = plan.to_bytes();
        assert_eq!(bytes.len(), plan.encoded_len());
        let back = RecordPlan::from_bytes(&bytes).expect("round trip");
        assert_eq!(back, plan);
    }

    #[test]
    fn new_sorts_atoms_by_day_then_first_time() {
        let late = RecordAtom::Literal(rec(1, 2, 1, 2, 1, 0));
        let early = RecordAtom::Literal(rec(0, 9, 3, 4, 1, 0));
        let tied = RecordAtom::Literal(rec(0, 9, 5, 6, 1, 0));
        let plan = RecordPlan::new(vec![late.clone(), early.clone(), tied.clone()]);
        // Stable: `early` was given before `tied` and stays before it.
        assert_eq!(plan.atoms(), &[early, tied, late]);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(
            RecordPlan::from_bytes(b"nope"),
            Err(PlanDecodeError::BadMagic)
        );
        let bytes = RecordPlan::new(vec![RecordAtom::Literal(rec(0, 1, 1, 2, 3, 0))]).to_bytes();

        // Appended bytes: the framing pins the body length, so the extras
        // are trailing and named by offset.
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(
            RecordPlan::from_bytes(&extended),
            Err(PlanDecodeError::TrailingBytes {
                offset: bytes.len()
            })
        );

        // Dropped bytes: the declared length no longer fits.
        let mut truncated = bytes.clone();
        truncated.pop();
        truncated.pop();
        match RecordPlan::from_bytes(&truncated) {
            Err(PlanDecodeError::BadLength {
                declared,
                available,
                ..
            }) => assert_eq!(available as u64 + 2, declared),
            other => panic!("expected BadLength, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_is_rejected_with_an_offset() {
        let bytes = sample_plan().to_bytes();
        for len in 0..bytes.len() {
            let err = RecordPlan::from_bytes(&bytes[..len]).expect_err("truncated");
            match err {
                PlanDecodeError::BadMagic
                | PlanDecodeError::Truncated { .. }
                | PlanDecodeError::BadLength { .. } => {}
                other => panic!("unexpected error for len {len}: {other:?}"),
            }
        }
    }

    #[test]
    fn every_bit_flip_is_rejected() {
        let plan = sample_plan();
        let bytes = plan.to_bytes();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                assert!(
                    RecordPlan::from_bytes(&corrupt) != Ok(plan.clone()),
                    "flip of bit {bit} at byte {i} went undetected"
                );
            }
        }
    }

    #[test]
    fn bad_tag_names_its_offset() {
        // Build a framed body by hand: one atom with tag 9.
        let mut body = Vec::new();
        crate::wire::write_varint(&mut body, 1); // atom count
        body.push(9); // bogus tag
        body.extend_from_slice(&[0u8; 6]); // template fields
        let mut bytes = b"RPLN1\n".to_vec();
        crate::wire::write_varint(&mut bytes, body.len() as u64);
        bytes.extend_from_slice(&crate::wire::crc32(&body).to_le_bytes());
        let tag_offset = bytes.len() + 1; // after the atom count varint
        bytes.extend_from_slice(&body);
        assert_eq!(
            RecordPlan::from_bytes(&bytes),
            Err(PlanDecodeError::BadTag {
                tag: 9,
                offset: tag_offset
            })
        );
    }

    #[test]
    fn empty_plan_is_fine() {
        let plan = RecordPlan::new(Vec::new());
        assert_eq!(plan.atom_count(), 0);
        assert_eq!(plan.window_count(), 0);
        let back = RecordPlan::from_bytes(&plan.to_bytes()).unwrap();
        assert_eq!(back, plan);
    }
}
