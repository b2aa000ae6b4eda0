//! Property tests for the streaming mobility sources: the DieselNet day
//! stream must yield *exactly* the window sequence of its materialized
//! per-day schedules, and the scale stream must stay in nondecreasing
//! start order however much of it is pulled.

use dtn_mobility::{DieselNet, DieselNetConfig, ScaleFleet};
use dtn_sim::{ContactWindow, Time, TimeDelta};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dieselnet_day_stream_equals_materialized_concatenation(
        seed in 0u64..500,
        first_day in 0u32..10,
        days in 1u32..5,
    ) {
        let fleet = Arc::new(DieselNet::new(DieselNetConfig::default(), seed));
        let range = first_day..(first_day + days);
        let streamed: Vec<ContactWindow> =
            DieselNet::stream_days(Arc::clone(&fleet), range.clone()).collect();
        let mut expected = Vec::new();
        for (k, day) in range.enumerate() {
            let offset = TimeDelta(fleet.config().day_length.0 * k as u64);
            for w in fleet.generate_day(day).schedule.windows() {
                expected.push(w.shifted(offset));
            }
        }
        prop_assert_eq!(streamed, expected);
    }

    #[test]
    fn scale_stream_is_a_stable_prefix_order(
        seed in 0u64..1000,
        run in 0u64..4,
        k in 1usize..400,
    ) {
        let fleet = ScaleFleet {
            nodes: 10_000,
            contacts: 2_000,
            opportunity_bytes: 4096,
            contact_duration: TimeDelta::ZERO,
            horizon: Time::from_secs(1800),
            hubs: 32,
            hub_bias: 0.3,
        };
        // Pulling a prefix never changes what the prefix contains.
        let full: Vec<ContactWindow> = fleet.contact_stream(seed, run).collect();
        let prefix: Vec<ContactWindow> =
            fleet.contact_stream(seed, run).take(k.min(full.len())).collect();
        prop_assert_eq!(&full[..prefix.len()], &prefix[..]);
        prop_assert!(full.windows(2).all(|w| w[0].start <= w[1].start));
    }
}
