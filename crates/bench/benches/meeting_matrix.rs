//! Microbenchmark: h-hop expected-meeting-time estimation (§4.1.2) — the
//! Bellman–Ford relaxation every contact runs — including the ablation over
//! the hop limit h (the paper fixes h = 3). Two forms over the same
//! believed means: the dense oracle (`n{n}_h{h}`) and a `MeetingView`'s
//! sparse rows (`view_n{n}_d{degree}_h3`), the latter also at the regional
//! shape where a node knows a handful of peers out of 400.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dtn_sim::{NodeId, Time};
use rand::Rng;
use rapid_core::{expected_meeting_times_from, HopEstimates, MeetingView};

/// Node 0's view of an `n`-node fleet in which every node has met its
/// next `degree` neighbours (twice, so a mean exists) and node 0 has
/// learned every row.
fn learned_view(n: usize, degree: usize) -> MeetingView {
    let own_view = |u: usize| {
        let mut view = MeetingView::new(NodeId(u as u32), n);
        for d in 1..=degree {
            let peer = NodeId(((u + d) % n) as u32);
            view.record_meeting(peer, Time::from_secs(d as u64));
            view.record_meeting(peer, Time::from_secs((600 * d + 37 * u) as u64));
        }
        view
    };
    let mut collector = own_view(0);
    for u in 1..n {
        collector.merge_rows_from(&own_view(u), &[NodeId(u as u32)]);
    }
    collector
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("meeting_matrix");
    let mut rng = dtn_stats::stream(1, "bench-matrix");
    for n in [20usize, 40] {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        if rng.gen::<f64>() < 0.4 {
                            rng.gen_range(600.0..90_000.0)
                        } else {
                            f64::INFINITY
                        }
                    })
                    .collect()
            })
            .collect();
        for h in [1usize, 2, 3, 4] {
            g.bench_function(format!("n{n}_h{h}"), |b| {
                b.iter(|| expected_meeting_times_from(black_box(&rows), NodeId(0), h))
            });
        }
    }
    for (n, degree) in [(40usize, 16usize), (400, 8), (400, 399)] {
        let view = learned_view(n, degree);
        let mut est = HopEstimates::default();
        g.bench_function(format!("view_n{n}_d{degree}_h3"), |b| {
            b.iter(|| {
                black_box(&view).expected_from_into(NodeId(0), 3, &mut est);
                black_box(est[n - 1])
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
