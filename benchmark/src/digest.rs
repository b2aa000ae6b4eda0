//! Report digests and the golden file.
//!
//! A change meant only to speed the simulator up must leave every
//! simulated statistic identical. The harness checks that by reducing
//! each operation's `SimReport` to a CRC32 over a canonical serialisation
//! of everything the run *produced* (counters, and per packet its delivery
//! instant and whether it entered the network — the packet tuples
//! themselves are inputs), and comparing it with the same operation of the
//! first pass and, at the golden seed, with `golden.json`.

use crate::json::Json;
use dtn_sim::SimReport;
use dtn_trace::crc32;

/// The seed `golden.json` is recorded at.
pub const GOLDEN_SEED: u64 = 7;

/// CRC32 over the canonical serialisation of one report.
pub fn report_digest(report: &SimReport) -> u32 {
    let mut bytes = Vec::with_capacity(96 + report.outcomes.len() * 9);
    let mut put = |v: u64| bytes.extend_from_slice(&v.to_le_bytes());
    put(report.outcomes.len() as u64);
    put(report.contacts);
    put(report.contacts_failed);
    put(report.contacts_suppressed);
    put(report.expired);
    put(report.offered_bytes);
    put(report.data_bytes);
    put(report.metadata_bytes);
    put(report.replications);
    put(report.horizon.0);
    put(report.deadline.map_or(u64::MAX, |d| d.0));
    for o in &report.outcomes {
        bytes.extend_from_slice(&o.delivered_at.map_or(u64::MAX, |t| t.0).to_le_bytes());
        bytes.push(u8::from(o.entered_network));
    }
    crc32(&bytes)
}

/// CRC32 over a pass: its operations' digests in order.
pub fn pass_digest(ops: &[u32]) -> u32 {
    let bytes: Vec<u8> = ops.iter().flat_map(|d| d.to_le_bytes()).collect();
    crc32(&bytes)
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden.json")
}

/// The recorded per-operation digests of `workload` at [`GOLDEN_SEED`],
/// as `(label, crc32)` in pass order; `None` if the file has no entry.
pub fn load_golden(workload: &str) -> Result<Option<Vec<(String, u32)>>, String> {
    let path = golden_path();
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(entry) = doc.get("workloads").and_then(|w| w.get(workload)) else {
        return Ok(None);
    };
    let ops = entry
        .get("ops")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: {workload} has no ops array", path.display()))?;
    ops.iter()
        .map(|o| {
            let label = o.get("op").and_then(Json::as_str);
            let crc = o.get("crc32").and_then(Json::as_f64);
            match (label, crc) {
                (Some(label), Some(crc)) => Ok((label.to_string(), crc as u32)),
                _ => Err(format!("{}: malformed op entry {o}", path.display())),
            }
        })
        .collect::<Result<Vec<_>, _>>()
        .map(Some)
}

/// Records `ops` as the golden digests of `workload` (the `--bless`
/// path — the only way the file changes). Other workloads' entries are
/// kept.
pub fn bless(workload: &str, ops: &[(String, u32)]) -> Result<(), String> {
    let path = golden_path();
    let mut workloads: Vec<(String, Json)> = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|doc| {
            doc.get("workloads")
                .and_then(Json::as_obj)
                .map(<[_]>::to_vec)
        })
        .unwrap_or_default();
    let digests: Vec<u32> = ops.iter().map(|(_, d)| *d).collect();
    let entry = Json::obj([
        ("pass_crc32", Json::Num(f64::from(pass_digest(&digests)))),
        (
            "ops",
            Json::Arr(
                ops.iter()
                    .map(|(label, d)| {
                        Json::obj([
                            ("op", Json::str(label.clone())),
                            ("crc32", Json::Num(f64::from(*d))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    match workloads.iter_mut().find(|(name, _)| name == workload) {
        Some(slot) => slot.1 = entry,
        None => workloads.push((workload.to_string(), entry)),
    }
    let doc = Json::obj([
        ("seed", Json::Num(GOLDEN_SEED as f64)),
        ("workloads", Json::Obj(workloads)),
    ]);
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::Time;

    #[test]
    fn digest_sees_every_produced_field() {
        let base = SimReport {
            contacts: 3,
            horizon: Time::from_secs(10),
            ..SimReport::default()
        };
        let d = report_digest(&base);
        assert_eq!(d, report_digest(&base.clone()), "digest is a pure function");
        let changed = [
            SimReport {
                contacts: 4,
                ..base.clone()
            },
            SimReport {
                replications: 1,
                ..base.clone()
            },
            SimReport {
                metadata_bytes: 1,
                ..base.clone()
            },
            SimReport {
                expired: 1,
                ..base.clone()
            },
        ];
        for other in &changed {
            assert_ne!(d, report_digest(other), "{other:?}");
        }
        assert_ne!(pass_digest(&[1, 2]), pass_digest(&[2, 1]), "order matters");
    }
}
