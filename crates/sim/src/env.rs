//! Strict environment-knob parsing, shared by every crate in the
//! workspace.
//!
//! Every `RAPID_*` knob goes through this module: an unset knob yields
//! its documented default, a *malformed* one (non-UTF-8 included) aborts
//! with a message naming the knob and the offending value. The strictness
//! is deliberate — a typo'd `RAPID_SHARDS=fou` must not silently fall
//! back to the serial engine and quietly invalidate a scaling measurement.
//!
//! The per-crate copies this module replaces (`par::jobs_from_env`,
//! `Lookahead::from_env`, `Kernel::from_env`, the bench crate's lenient
//! `env_u64`) now delegate here, so the parse-and-abort behaviour is
//! identical across knobs:
//!
//! * `RAPID_JOBS` / `RAPID_INTRA_JOBS` / `RAPID_SHARDS` — worker and
//!   shard counts, positive integers ([`jobs_from_env`]).
//! * `RAPID_LOOKAHEAD` — the batch scheduler's policy
//!   ([`crate::par::Lookahead::from_env`]).
//! * `RAPID_KERNEL` — the estimate-kernel selector (parsed by
//!   `rapid-core`, read through [`from_env_or`]).
//! * Generic counters — [`u64_from_env`].

use std::env::VarError;

/// Reads a knob and runs `parse` over it: an unset knob yields
/// `default`, a present one must parse or the process aborts with the
/// parser's message. The single strict read-and-abort path every typed
/// knob shares.
pub fn from_env_or<T>(name: &str, default: T, parse: impl FnOnce(&str) -> Result<T, String>) -> T {
    resolve(name, std::env::var(name), default, parse).unwrap_or_else(|e| panic!("{e}"))
}

/// What [`from_env_or`] decides from one `std::env::var` reading: only a
/// knob that is *not present* takes the default — a value that is not
/// UTF-8 is set-but-garbage like any other and must not be ignored.
fn resolve<T>(
    name: &str,
    read: Result<String, VarError>,
    default: T,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<T, String> {
    match read {
        Ok(v) => parse(&v),
        Err(VarError::NotPresent) => Ok(default),
        Err(VarError::NotUnicode(raw)) => {
            Err(format!("invalid {name} value {raw:?}: not valid UTF-8"))
        }
    }
}

/// Parses a worker-count value: a positive integer, nothing else. `0`
/// and non-numeric values are errors — a typo'd jobs knob must abort,
/// not silently run serial.
pub fn parse_jobs(name: &str, value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(v) if v >= 1 => Ok(v),
        Ok(_) => Err(format!(
            "invalid {name} value {value:?}: must be >= 1 (use 1 for serial execution)"
        )),
        Err(_) => Err(format!(
            "invalid {name} value {value:?}: expected a positive integer"
        )),
    }
}

/// Reads a worker-count knob from the environment; an unset knob yields
/// `default`, an invalid one aborts with a clear message (see
/// [`parse_jobs`]).
pub fn jobs_from_env(name: &str, default: usize) -> usize {
    from_env_or(name, default, |v| parse_jobs(name, v))
}

/// The intra-run worker count from `RAPID_INTRA_JOBS` (default 1 = the
/// serial engine). Harness code plumbs this into
/// [`crate::routing::SimConfig::intra_jobs`].
pub fn intra_jobs_from_env() -> usize {
    jobs_from_env("RAPID_INTRA_JOBS", 1)
}

/// The shard count from `RAPID_SHARDS` (default 1 = today's unsharded
/// engine, byte-identical). Harness code routes a run through
/// [`crate::shard::run_sharded`] when this exceeds 1.
pub fn shards_from_env() -> usize {
    jobs_from_env("RAPID_SHARDS", 1)
}

/// Reads a non-negative integer knob; unset yields `default`, anything
/// unparseable aborts.
pub fn u64_from_env(name: &str, default: u64) -> u64 {
    from_env_or(name, default, |v| {
        v.trim()
            .parse::<u64>()
            .map_err(|_| format!("invalid {name} value {v:?}: expected a non-negative integer"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_jobs_accepts_positive_integers() {
        assert_eq!(parse_jobs("RAPID_SHARDS", "1"), Ok(1));
        assert_eq!(parse_jobs("RAPID_SHARDS", " 8 "), Ok(8));
    }

    #[test]
    fn parse_jobs_rejects_zero_and_garbage() {
        assert!(parse_jobs("RAPID_SHARDS", "0")
            .unwrap_err()
            .contains("must be >= 1"));
        for bad in ["", "four", "-2", "1.5"] {
            assert!(
                parse_jobs("RAPID_SHARDS", bad)
                    .unwrap_err()
                    .contains("positive integer"),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn unset_knobs_yield_defaults() {
        // These knobs are never set in the test environment.
        assert_eq!(jobs_from_env("RAPID_ENV_TEST_UNSET", 3), 3);
        assert_eq!(u64_from_env("RAPID_ENV_TEST_UNSET", 42), 42);
        assert!(shards_from_env() >= 1);
        assert!(intra_jobs_from_env() >= 1);
    }

    #[test]
    fn from_env_or_runs_the_parser_on_present_values() {
        // Process-env mutation is race-prone under the parallel test
        // runner, so exercise the parser contract directly.
        let parsed = from_env_or("RAPID_ENV_TEST_UNSET", 7u64, |_| unreachable!());
        assert_eq!(parsed, 7);
    }

    #[cfg(unix)]
    #[test]
    fn resolve_defaults_only_when_the_knob_is_absent() {
        use std::os::unix::ffi::OsStringExt;
        let shards = |read| resolve("RAPID_SHARDS", read, 1, |v| parse_jobs("RAPID_SHARDS", v));
        assert_eq!(shards(Err(VarError::NotPresent)), Ok(1));
        assert_eq!(shards(Ok("4".into())), Ok(4));
        assert!(shards(Ok("fou".into())).is_err());
        let raw = std::ffi::OsString::from_vec(vec![0xff, b'4']);
        let err = shards(Err(VarError::NotUnicode(raw))).unwrap_err();
        assert!(
            err.contains("RAPID_SHARDS") && err.contains("not valid UTF-8"),
            "{err}"
        );
    }

    #[test]
    fn u64_parse_is_strict() {
        for bad in ["", "ten", "-1", "3.5"] {
            assert!(
                bad.trim().parse::<u64>().is_err(),
                "{bad:?} must fail the u64 path"
            );
        }
    }
}
