//! Micro-benchmarks of the exact distance measures.
//!
//! These quantify the premise of the whole paper: exact distances (shape
//! context with Hungarian matching, constrained DTW) are orders of magnitude
//! more expensive than the L1 comparisons used in the filter step (the paper
//! quotes ~15 shape-context and ~60 cDTW evaluations per second vs ~1M L1
//! distances per second on 2005 hardware).

use criterion::{criterion_group, criterion_main, Criterion};
use qse_dataset::{DigitGenerator, TimeSeriesGenerator};
use qse_distance::{ConstrainedDtw, DistanceMeasure, LpDistance, ShapeContextDistance};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_shape_context(c: &mut Criterion) {
    let generator = DigitGenerator::default();
    let mut rng = StdRng::seed_from_u64(1);
    let a = generator.sample(3, &mut rng);
    let b = generator.sample(8, &mut rng);
    let sc = ShapeContextDistance::new();
    c.bench_function("shape_context_distance_32pts", |bench| {
        bench.iter(|| black_box(sc.distance(black_box(&a), black_box(&b))))
    });
}

fn bench_dtw(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let generator = TimeSeriesGenerator::with_default_config(&mut rng);
    let a = generator.variation(0, &mut rng);
    let b = generator.variation(1, &mut rng);
    let dtw = ConstrainedDtw::paper();
    c.bench_function("constrained_dtw_96pts_band10pct", |bench| {
        bench.iter(|| black_box(dtw.distance(black_box(&a), black_box(&b))))
    });
    // A refine candidate that the k-th best already beats: the cutoff is
    // half the pair's distance, so the dynamic program stops part-way.
    let cutoff = 0.5 * dtw.distance(&a, &b);
    c.bench_function("constrained_dtw_96pts_band10pct_within", |bench| {
        bench.iter(|| {
            black_box(dtw.distance_within(black_box(&a), black_box(&b), black_box(cutoff)))
        })
    });
    let full = ConstrainedDtw::unconstrained();
    c.bench_function("unconstrained_dtw_96pts", |bench| {
        bench.iter(|| black_box(full.distance(black_box(&a), black_box(&b))))
    });
}

fn bench_l1_filter_distance(c: &mut Criterion) {
    // The cheap side of the trade-off: a 100-dimensional L1 distance, the
    // operation the filter step performs once per database object.
    let a: Vec<f64> = (0..100).map(|i| i as f64 * 0.37).collect();
    let b: Vec<f64> = (0..100).map(|i| (i as f64).sin()).collect();
    let l1 = LpDistance::l1();
    c.bench_function("l1_distance_100d", |bench| {
        bench.iter(|| black_box(l1.eval(black_box(&a), black_box(&b))))
    });
}

fn bench_hungarian(c: &mut Criterion) {
    use qse_distance::hungarian::{solve_assignment, CostMatrix};
    let n = 32;
    let mut state = 0x12345678u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((state >> 33) as f64) / (u32::MAX as f64)
    };
    let costs = CostMatrix::from_rows(n, n, (0..n * n).map(|_| next()).collect());
    c.bench_function("hungarian_assignment_32x32", |bench| {
        bench.iter(|| black_box(solve_assignment(black_box(&costs))))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_shape_context, bench_dtw, bench_l1_filter_distance, bench_hungarian
);
criterion_main!(benches);
