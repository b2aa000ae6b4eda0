//! Microbenchmark of the batched Eq. 4–9 estimate kernel.
//!
//! Times [`RateBatch::compute`] plus the Eq. 8 fold ([`combined_rate`])
//! over a fixed pseudo-random queue, per kernel — the isolated cost of
//! one per-destination row sweep, the inner loop of both `make_room` rate
//! refreshes and `replicate_side` candidate scoring. The benchmark of
//! record (`benchmark/`) calls [`measure_rows_stats`] once per kernel for
//! its `core.kernel.ns_per_row` / `scalar_ns_per_row` probes.

use rapid_core::{combined_rate, Kernel, RateBatch};
use std::time::Instant;

/// Deterministic pseudo-random backlog sizes (SplitMix64 stream): spread
/// over realistic queue-depth magnitudes without an RNG dependency.
pub fn queue_bytes(len: usize, seed: u64) -> Vec<u64> {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            // Backlogs up to ~16 MB: a busy DTN queue, not a pathology.
            z % (16 << 20)
        })
        .collect()
}

/// Wall milliseconds for `iters` full row sweeps (compute +
/// deterministic rate reduction) of a `len`-entry queue on `kernel`,
/// over `repeats` timed repeats. Returns `(min_ms, mean_ms, checksum)` —
/// the checksum defeats dead-code elimination and doubles as a
/// cross-kernel agreement check (bitwise-identical kernels produce
/// bitwise-identical sums).
pub fn measure_rows_stats(kernel: Kernel, len: usize, iters: u64, repeats: u64) -> (f64, f64, f64) {
    let bytes = queue_bytes(len, 7);
    let mut batch = RateBatch::default();
    for &b in &bytes {
        batch.push(b);
    }
    // Meeting estimate / opportunity / cap in the fig-scenario range.
    let (e, opp, cap) = (1800.0, 64.0 * 1024.0, 1e9);

    let mut sink = 0.0f64;
    let mut best_ms = f64::INFINITY;
    let mut sum_ms = 0.0;
    // One warmup repeat outside the measurement.
    for repeat in 0..=repeats.max(1) {
        let start = Instant::now();
        for _ in 0..iters.max(1) {
            batch.compute(e, opp, cap, kernel);
            sink += combined_rate(batch.delays().iter().copied());
        }
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if repeat > 0 {
            best_ms = best_ms.min(ms);
            sum_ms += ms;
        }
    }
    (
        best_ms,
        sum_ms / repeats.max(1) as f64,
        std::hint::black_box(sink),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_agree_on_the_bench_checksum() {
        let (_, _, scalar_sum) = measure_rows_stats(Kernel::Scalar, 256, 3, 1);
        let detected = Kernel::detect();
        let (_, _, detected_sum) = measure_rows_stats(detected, 256, 3, 1);
        assert_eq!(
            scalar_sum.to_bits(),
            detected_sum.to_bits(),
            "bench checksum must be kernel-independent (detected {detected:?})"
        );
    }
}
