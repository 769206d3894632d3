//! Property-style tests on the core invariants of the reproduction, run
//! over many deterministic pseudo-random cases (the `proptest` crate is not
//! available in this offline build environment, so cases are drawn from the
//! workspace's seeded RNG instead — same spirit, reproducible failures):
//!
//! * metric axioms for the measures that claim them, symmetry for the
//!   symmetric non-metric ones,
//! * DTW band monotonicity and the lock-step upper bound,
//! * the cDTW kernel ≡ the rolling two-row reference DP **bit for bit**
//!   at sample dims 1–5, every local cost and band, and its
//!   `distance_within` cutoff contract,
//! * Hungarian optimality against exhaustive permutation search,
//! * Proposition 1 of the paper (the boosted classifier equals the
//!   classifier induced by `F_out` + `D_out`) on randomly generated models,
//! * embedding-prefix consistency,
//! * filter-and-refine recall = 1 when `p = |database|`,
//! * top-p selection ≡ full-sort prefix for every `p` (the filter hot path),
//! * the filter scan `WeightedL1::eval_filter` over an `f64` store ≡
//!   row-by-row `eval` **bit for bit** at random dimensionalities 1–67
//!   (including widths that are not multiples of the kernel's lane count),
//! * the Q×N tiled scan `WeightedL1::eval_filter_batch` ≡ per-query
//!   `eval_filter` **bit for bit** across every dimensionality 1–67, batch
//!   sizes straddling the tile width, empty/tiny/large stores, and worker
//!   counts 1/2/8 (the tiling and the fan-out must both be invisible).

use query_sensitive_embeddings::core::model::{QseModel, TrainingHistory, WeakLearner};
use query_sensitive_embeddings::core::Interval;
use query_sensitive_embeddings::distance::chamfer::ChamferDistance;
use query_sensitive_embeddings::distance::dtw::{BandWidth, ConstrainedDtw, LocalCost, TimeSeries};
use query_sensitive_embeddings::distance::edit::EditDistance;
use query_sensitive_embeddings::distance::hungarian::{
    brute_force_assignment, solve_assignment, CostMatrix,
};
use query_sensitive_embeddings::distance::kl::KlDivergence;
use query_sensitive_embeddings::distance::shape_context::{Point2, PointSet};
use query_sensitive_embeddings::distance::traits::{FnDistance, MetricProperties};
use query_sensitive_embeddings::embedding::one_d::Candidate;
use query_sensitive_embeddings::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 64;

mod common;
use common::with_thread_count;

fn abs_distance() -> FnDistance<impl Fn(&f64, &f64) -> f64 + Send + Sync> {
    FnDistance::new("abs", MetricProperties::Metric, |a: &f64, b: &f64| {
        (a - b).abs()
    })
}

fn small_vec(rng: &mut StdRng, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(-50.0..50.0)).collect()
}

#[test]
fn l1_and_l2_satisfy_metric_axioms() {
    let mut rng = StdRng::seed_from_u64(0xA1);
    for _ in 0..CASES {
        let a = small_vec(&mut rng, 6);
        let b = small_vec(&mut rng, 6);
        let c = small_vec(&mut rng, 6);
        for d in [LpDistance::l1(), LpDistance::l2()] {
            let ab = d.eval(&a, &b);
            let ba = d.eval(&b, &a);
            assert!(ab >= 0.0);
            assert!((ab - ba).abs() < 1e-9);
            assert!(d.eval(&a, &a) < 1e-12);
            assert!(ab <= d.eval(&a, &c) + d.eval(&c, &b) + 1e-9);
        }
    }
}

#[test]
fn weighted_l1_triangle_inequality_and_symmetry() {
    let mut rng = StdRng::seed_from_u64(0xA2);
    for _ in 0..CASES {
        let a = small_vec(&mut rng, 5);
        let b = small_vec(&mut rng, 5);
        let c = small_vec(&mut rng, 5);
        let w: Vec<f64> = (0..5).map(|_| rng.gen_range(0.0..10.0)).collect();
        let d = WeightedL1::new(w);
        assert!(d.eval(&a, &b) <= d.eval(&a, &c) + d.eval(&c, &b) + 1e-9);
        assert!((d.eval(&a, &b) - d.eval(&b, &a)).abs() < 1e-9);
    }
}

fn random_series(rng: &mut StdRng, min_len: usize, max_len: usize) -> TimeSeries {
    let len = rng.gen_range(min_len..max_len);
    TimeSeries::univariate((0..len).map(|_| rng.gen_range(-5.0..5.0)))
}

#[test]
fn dtw_is_symmetric_and_zero_on_identical() {
    let mut rng = StdRng::seed_from_u64(0xB1);
    let d = ConstrainedDtw::paper();
    for _ in 0..CASES {
        let sa = random_series(&mut rng, 4, 20);
        let sb = random_series(&mut rng, 4, 20);
        assert!((d.eval(&sa, &sb) - d.eval(&sb, &sa)).abs() < 1e-9);
        assert!(d.eval(&sa, &sa) < 1e-12);
        assert!(d.eval(&sa, &sb) >= 0.0);
    }
}

#[test]
fn dtw_band_widening_never_increases_distance() {
    let mut rng = StdRng::seed_from_u64(0xB2);
    for _ in 0..CASES {
        let sa = random_series(&mut rng, 6, 16);
        let sb = random_series(&mut rng, 6, 16);
        let mut last = f64::INFINITY;
        for w in 0..8 {
            let d = ConstrainedDtw::with_absolute_band(w).eval(&sa, &sb);
            assert!(d <= last + 1e-9, "band {w} gave {d} > {last}");
            last = d;
        }
    }
}

#[test]
fn dtw_is_bounded_by_lockstep_on_equal_lengths() {
    let mut rng = StdRng::seed_from_u64(0xB3);
    for _ in 0..CASES {
        let len = rng.gen_range(4..20);
        let pairs: Vec<(f64, f64)> = (0..len)
            .map(|_| (rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)))
            .collect();
        let a = TimeSeries::univariate(pairs.iter().map(|p| p.0));
        let b = TimeSeries::univariate(pairs.iter().map(|p| p.1));
        let lockstep: f64 = pairs.iter().map(|p| (p.0 - p.1).abs()).sum();
        assert!(ConstrainedDtw::unconstrained().eval(&a, &b) <= lockstep + 1e-9);
    }
}

/// The rolling two-row cDTW dynamic program that `ConstrainedDtw::eval`
/// replaced, kept as the kernel's bit-exact reference: full-row reset per
/// row, `cost + min(up, left, diag)` per cell.
fn reference_cdtw(dtw: &ConstrainedDtw, a: &TimeSeries, b: &TimeSeries) -> f64 {
    let (rows, cols) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let (n, m) = (rows.len(), cols.len());
    let requested = match dtw.band {
        BandWidth::Absolute(w) => w,
        BandWidth::Relative(frac) => (frac * n as f64).round() as usize,
        BandWidth::Unconstrained => m,
    };
    let band = requested.max(m - n).min(m);
    let local = |x: &[f64], y: &[f64]| -> f64 {
        let sq = || x.iter().zip(y).map(|(p, q)| (p - q) * (p - q)).sum::<f64>();
        match dtw.local_cost {
            LocalCost::Euclidean => sq().sqrt(),
            LocalCost::SquaredEuclidean => sq(),
            LocalCost::Manhattan => x.iter().zip(y).map(|(p, q)| (p - q).abs()).sum::<f64>(),
        }
    };
    let inf = f64::INFINITY;
    let mut prev = vec![inf; m + 1];
    let mut curr = vec![inf; m + 1];
    prev[0] = 0.0;
    for i in 1..=n {
        curr.iter_mut().for_each(|c| *c = inf);
        let lo = i.saturating_sub(band).max(1);
        let hi = (i + band).min(m);
        for j in lo..=hi {
            let cost = local(rows.sample(i - 1), cols.sample(j - 1));
            curr[j] = cost + prev[j].min(curr[j - 1]).min(prev[j - 1]);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[m]
}

/// A `dim`-dimensional series with a length drawn from `lens`; `coarse`
/// draws from five integers so local costs and accumulated cells tie
/// often.
fn random_series_dim(
    rng: &mut StdRng,
    lens: std::ops::Range<usize>,
    dim: usize,
    coarse: bool,
) -> TimeSeries {
    let len = rng.gen_range(lens);
    let mut draw = || {
        if coarse {
            rng.gen_range(-2..=2) as f64
        } else {
            rng.gen_range(-5.0..5.0)
        }
    };
    TimeSeries::new(
        (0..len)
            .map(|_| (0..dim).map(|_| draw()).collect())
            .collect(),
    )
}

fn all_cdtw_configs() -> Vec<ConstrainedDtw> {
    let bands = [
        BandWidth::Absolute(0),
        BandWidth::Absolute(1),
        BandWidth::Absolute(4),
        BandWidth::Relative(0.1),
        BandWidth::Relative(0.35),
        BandWidth::Relative(1.0),
        BandWidth::Unconstrained,
    ];
    let costs = [
        LocalCost::Euclidean,
        LocalCost::SquaredEuclidean,
        LocalCost::Manhattan,
    ];
    bands
        .iter()
        .flat_map(|&band| {
            costs
                .iter()
                .map(move |&local_cost| ConstrainedDtw { band, local_cost })
        })
        .collect()
}

#[test]
fn cdtw_kernel_is_bit_identical_to_the_rolling_reference() {
    // Both cost paths (dim 2 fixed, 1 and 3-5 at run time), unequal and
    // single-sample lengths, every local cost and band (zero and
    // unconstrained included), and tied/duplicate series.
    let mut rng = StdRng::seed_from_u64(0xB4);
    let configs = all_cdtw_configs();
    for case in 0..CASES {
        let dim = 1 + case % 5;
        let coarse = case % 3 == 0;
        let a = random_series_dim(&mut rng, 1..20, dim, coarse);
        let b = random_series_dim(&mut rng, 1..30, dim, coarse);
        // `a` played at half speed: a perfect warp of `a` at most bands.
        let stretched =
            TimeSeries::new(a.samples().flat_map(|s| [s.to_vec(), s.to_vec()]).collect());
        let pairs = [
            (&a, &b),
            (&b, &a),
            (&a, &a),
            (&a, &a.clone()),
            (&a, &stretched),
        ];
        for dtw in &configs {
            for (x, y) in pairs {
                let got = dtw.eval(x, y);
                let want = reference_cdtw(dtw, x, y);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "case {case}, dim {dim}, {dtw:?}: {got} vs {want}"
                );
                assert_eq!(dtw.distance(x, y).to_bits(), want.to_bits());
            }
        }
    }
}

#[test]
fn cdtw_distance_within_is_exact_up_to_the_cutoff() {
    // The contract: the exact distance when it is at most `cutoff`,
    // otherwise a value above `cutoff` (for cDTW, a lower bound of the
    // distance). Some cutoffs must actually stop the program early.
    let mut rng = StdRng::seed_from_u64(0xB5);
    let configs = all_cdtw_configs();
    let mut stopped_early = 0;
    for case in 0..CASES {
        let dim = 1 + case % 5;
        let coarse = case % 3 == 0;
        let a = random_series_dim(&mut rng, 2..20, dim, coarse);
        let b = random_series_dim(&mut rng, 2..30, dim, coarse);
        for dtw in &configs {
            let exact = dtw.eval(&a, &b);
            let cutoffs = [
                0.0,
                0.25 * exact,
                0.9 * exact,
                exact.next_down(),
                exact,
                exact.next_up(),
                2.0 * exact,
                f64::INFINITY,
            ];
            // On integer samples the Manhattan and squared costs make every
            // cell an integer, so some of these equal a row's minimum.
            let whole = (0..=exact.min(64.0) as usize).map(|c| c as f64);
            for cutoff in cutoffs.into_iter().chain(whole) {
                let within = dtw.distance_within(&a, &b, cutoff);
                if exact <= cutoff {
                    assert_eq!(within.to_bits(), exact.to_bits(), "{dtw:?} at {cutoff}");
                } else {
                    assert!(within > cutoff, "{dtw:?}: {within} not above {cutoff}");
                    assert!(within <= exact, "{dtw:?}: {within} above {exact}");
                    stopped_early += usize::from(within < exact);
                }
            }
        }
    }
    assert!(stopped_early > 0, "no cutoff stopped the program early");
}

#[test]
fn distance_within_forwards_and_counts_once() {
    // Wrappers reach the measure's own `distance_within`; a measure
    // without one answers exactly; the counter sees one call per call.
    let mut rng = StdRng::seed_from_u64(0xB6);
    let a = random_series_dim(&mut rng, 40..41, 2, false);
    let b = random_series_dim(&mut rng, 40..41, 2, false);
    let dtw = ConstrainedDtw::paper();
    let exact = dtw.eval(&a, &b);
    let cutoff = 0.1 * exact;
    let direct = dtw.distance_within(&a, &b, cutoff);
    assert!(
        cutoff < direct && direct < exact,
        "the pair must stop early"
    );
    let boxed: Box<dyn DistanceMeasure<TimeSeries>> = Box::new(dtw);
    let arced: std::sync::Arc<dyn DistanceMeasure<TimeSeries>> = std::sync::Arc::new(dtw);
    let counting = CountingDistance::new(dtw);
    for forwarded in [
        <&ConstrainedDtw as DistanceMeasure<TimeSeries>>::distance_within(&&dtw, &a, &b, cutoff),
        boxed.distance_within(&a, &b, cutoff),
        arced.distance_within(&a, &b, cutoff),
        counting.distance_within(&a, &b, cutoff),
        counting.distance_within(&a, &b, cutoff),
    ] {
        assert_eq!(forwarded.to_bits(), direct.to_bits());
    }
    assert_eq!(counting.count(), 2);

    let l2 = LpDistance::l2();
    let (x, y) = (vec![0.0, 3.0], vec![4.0, 0.0]);
    assert_eq!(l2.distance_within(&x, &y, 1.0), 5.0);
}

#[test]
#[should_panic(expected = "finite")]
fn time_series_rejects_a_nan_sample() {
    let _ = TimeSeries::new(vec![vec![0.0, 1.0], vec![f64::NAN, 2.0]]);
}

#[test]
#[should_panic(expected = "finite")]
fn time_series_rejects_an_infinite_sample() {
    let _ = TimeSeries::univariate([1.0, f64::INFINITY, 3.0]);
}

#[test]
fn levenshtein_metric_axioms() {
    let mut rng = StdRng::seed_from_u64(0xC1);
    let d = EditDistance::levenshtein();
    let word = |rng: &mut StdRng| -> Vec<u8> {
        let len = rng.gen_range(0..12usize);
        (0..len).map(|_| rng.gen_range(0u8..4)).collect()
    };
    for _ in 0..CASES {
        let a = word(&mut rng);
        let b = word(&mut rng);
        let c = word(&mut rng);
        assert_eq!(d.eval(&a, &b), d.eval(&b, &a));
        assert_eq!(d.eval(&a, &a), 0.0);
        assert!(d.eval(&a, &b) <= d.eval(&a, &c) + d.eval(&c, &b) + 1e-9);
        assert!(d.eval(&a, &b) <= a.len().max(b.len()) as f64);
    }
}

#[test]
fn kl_divergences_are_nonnegative_and_js_is_symmetric() {
    let mut rng = StdRng::seed_from_u64(0xC2);
    for _ in 0..CASES {
        let p: Vec<f64> = (0..4).map(|_| rng.gen_range(0.01..10.0)).collect();
        let q: Vec<f64> = (0..4).map(|_| rng.gen_range(0.01..10.0)).collect();
        assert!(KlDivergence::asymmetric().eval(&p, &q) >= -1e-12);
        let js = KlDivergence::jensen_shannon();
        assert!((js.eval(&p, &q) - js.eval(&q, &p)).abs() < 1e-9);
        assert!(js.eval(&p, &q) <= std::f64::consts::LN_2 + 1e-9);
    }
}

#[test]
fn chamfer_symmetric_variant_is_symmetric_and_nonnegative() {
    let mut rng = StdRng::seed_from_u64(0xC3);
    let points = |rng: &mut StdRng| -> PointSet {
        let len = rng.gen_range(2..10usize);
        PointSet::new(
            (0..len)
                .map(|_| Point2::new(rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)))
                .collect(),
        )
    };
    let d = ChamferDistance::symmetric();
    for _ in 0..CASES {
        let pa = points(&mut rng);
        let pb = points(&mut rng);
        assert!(d.eval(&pa, &pb) >= 0.0);
        assert!((d.eval(&pa, &pb) - d.eval(&pb, &pa)).abs() < 1e-9);
        assert!(d.eval(&pa, &pa) < 1e-12);
    }
}

#[test]
fn hungarian_matches_exhaustive_search() {
    let mut rng = StdRng::seed_from_u64(0xD1);
    for _ in 0..CASES {
        let costs: Vec<f64> = (0..16).map(|_| rng.gen_range(0.0..20.0)).collect();
        let m = CostMatrix::from_rows(4, 4, costs);
        let fast = solve_assignment(&m).total_cost;
        let brute = brute_force_assignment(&m);
        assert!((fast - brute).abs() < 1e-6, "{fast} vs {brute}");
    }
}

#[test]
fn proposition_1_holds_for_random_models() {
    let mut rng = StdRng::seed_from_u64(0xE1);
    let abs = abs_distance();
    for _ in 0..CASES {
        let dim = rng.gen_range(1..5usize);
        let coordinates: Vec<OneDEmbedding<f64>> = (0..dim)
            .map(|i| OneDEmbedding::reference(Candidate::new(i, rng.gen_range(-20.0..20.0))))
            .collect();
        let learner_count = rng.gen_range(1..8usize);
        let learners: Vec<WeakLearner> = (0..learner_count)
            .map(|_| {
                let lo = rng.gen_range(0.0..5.0);
                WeakLearner {
                    coordinate: rng.gen_range(0..dim),
                    interval: Interval::new(lo, lo + rng.gen_range(0.0..20.0)),
                    alpha: rng.gen_range(0.01..3.0),
                }
            })
            .collect();
        let model = QseModel::new(coordinates, learners, TrainingHistory::default());
        let emb = model.embedding();
        let q = rng.gen_range(-25.0..25.0);
        let a = rng.gen_range(-25.0..25.0);
        let b = rng.gen_range(-25.0..25.0);
        let fq = emb.embed(&q, &abs);
        let fa = emb.embed(&a, &abs);
        let fb = emb.embed(&b, &abs);
        let h = model.classify_embedded(&fq, &fa, &fb);
        let via_distance = model.classifier_from_distance(&fq, &fa, &fb);
        assert!(
            (h - via_distance).abs() < 1e-9 * (1.0 + h.abs()),
            "Proposition 1 violated: {h} vs {via_distance}"
        );
    }
}

#[test]
fn composite_prefix_coordinates_match_full_embedding() {
    let mut rng = StdRng::seed_from_u64(0xE2);
    let abs = abs_distance();
    for _ in 0..CASES {
        let dim = rng.gen_range(2..6usize);
        let coords: Vec<OneDEmbedding<f64>> = (0..dim)
            .map(|i| OneDEmbedding::reference(Candidate::new(i, rng.gen_range(-20.0..20.0))))
            .collect();
        let full = CompositeEmbedding::new(coords);
        let x = rng.gen_range(-25.0..25.0);
        let v_full = full.embed(&x, &abs);
        for d in 1..=full.dim() {
            let v_prefix = full.prefix(d).embed(&x, &abs);
            assert_eq!(&v_full[..d], &v_prefix[..]);
        }
    }
}

#[test]
fn full_p_filter_refine_has_perfect_recall() {
    let mut rng = StdRng::seed_from_u64(0xE3);
    let abs = abs_distance();
    for _ in 0..CASES {
        let len = rng.gen_range(10..40usize);
        let db: Vec<f64> = (0..len).map(|_| rng.gen_range(-100.0..100.0)).collect();
        let query = rng.gen_range(-100.0..100.0);
        // A deliberately poor 1-coordinate embedding: distance to db[0].
        let embedding =
            CompositeEmbedding::new(vec![OneDEmbedding::reference(Candidate::new(0, db[0]))]);
        let index = FilterRefineIndex::build_global(embedding, &db, &abs);
        let out = index.retrieve(&query, &db, &abs, 3, db.len());
        let truth = ground_truth(std::slice::from_ref(&query), &db, &abs, 3, 1);
        assert_eq!(out.neighbors, truth[0].neighbors);
    }
}

#[test]
fn eval_flat_kernel_is_bit_identical_to_row_by_row_eval() {
    // The filter scan's batch kernel reduces coordinates in lane-wide blocks
    // with independent accumulators; `eval` shares the same canonical order,
    // so for ANY dimensionality (1..=67 covers every lane remainder, far
    // past the lane width) and any weights the outputs must agree bit for
    // bit — equality under `total_cmp` ordering, not merely within epsilon.
    let mut rng = StdRng::seed_from_u64(0xF1A7);
    for case in 0..CASES {
        let dim = rng.gen_range(1..68usize);
        let rows = rng.gen_range(0..30usize);
        let weights: Vec<f64> = (0..dim)
            .map(|_| {
                if rng.gen_bool(0.2) {
                    0.0 // zero weights exercise the pseudo-metric corner
                } else {
                    rng.gen_range(0.0..10.0)
                }
            })
            .collect();
        let query: Vec<f64> = (0..dim).map(|_| rng.gen_range(-100.0..100.0)).collect();
        let row_data: Vec<Vec<f64>> = (0..rows)
            .map(|_| (0..dim).map(|_| rng.gen_range(-100.0..100.0)).collect())
            .collect();
        let d = WeightedL1::new(weights);
        let store = FlatVectors::from_rows_with_dim(dim, row_data);
        let mut out = vec![f64::NAN; store.len()];
        d.eval_filter(&query, &store, &mut out);
        for (i, flat) in out.iter().enumerate() {
            let scalar = d.eval(&query, store.row(i));
            assert_eq!(
                flat.to_bits(),
                scalar.to_bits(),
                "case {case}: dim {dim}, row {i}: {flat} != {scalar}"
            );
        }
    }
}

/// One batch-kernel identity check: `eval_filter_batch` over `qcount`
/// queries and `rows` database rows at dimensionality `dim` must reproduce
/// the per-query `eval_filter` scan bit for bit.
fn assert_batch_kernel_identity(rng: &mut StdRng, dim: usize, qcount: usize, rows: usize) {
    let weights: Vec<f64> = (0..dim)
        .map(|_| {
            if rng.gen_bool(0.2) {
                0.0
            } else {
                rng.gen_range(0.0..10.0)
            }
        })
        .collect();
    let d = WeightedL1::new(weights);
    let queries = FlatVectors::from_rows_with_dim(
        dim,
        (0..qcount)
            .map(|_| (0..dim).map(|_| rng.gen_range(-100.0..100.0)).collect())
            .collect(),
    );
    let store = FlatVectors::from_rows_with_dim(
        dim,
        (0..rows)
            .map(|_| (0..dim).map(|_| rng.gen_range(-100.0..100.0)).collect())
            .collect(),
    );
    let mut batch = vec![f64::NAN; qcount * rows];
    d.eval_filter_batch(&queries, &store, &mut batch);
    let mut single = vec![f64::NAN; rows];
    for q in 0..qcount {
        d.eval_filter(queries.row(q), &store, &mut single);
        for (i, score) in single.iter().enumerate() {
            assert_eq!(
                batch[q * rows + i].to_bits(),
                score.to_bits(),
                "dim {dim}, batch {qcount}, db {rows}, query {q}, row {i}"
            );
        }
    }
}

#[test]
fn eval_flat_batch_is_bit_identical_to_per_query_eval_flat() {
    // The tiled Q×N kernel must be invisible: for every dimensionality 1–67
    // (covering every lane remainder), batch sizes {0, 1, 2, 7, 64, 257}
    // (empty, sub-tile, tile-straddling, many-tile), database sizes
    // {0, 1, 1000} and worker counts {1, 2, 8}, each batch row equals the
    // per-query kernel — and therefore the scalar path — bit for bit.
    //
    // The full cross product would be needlessly slow in debug builds, so
    // every dimensionality is crossed with the small/empty shapes, while the
    // large batch/database corners run at dimensionalities around the lane
    // and tile boundaries.
    for threads in [1usize, 2, 8] {
        with_thread_count(threads, || {
            let mut rng = StdRng::seed_from_u64(0xBA7C_4000 + threads as u64);
            for dim in 1..=67 {
                for (qcount, rows) in [(0, 0), (0, 1000), (1, 0), (2, 1), (7, 1), (7, 111)] {
                    assert_batch_kernel_identity(&mut rng, dim, qcount, rows);
                }
            }
            // Large batch/database corners, at dimensionalities around the
            // lane and tile boundaries (the cross product with all 67 dims
            // would be needlessly slow in debug builds without adding
            // coverage).
            for (dim, qcount, rows) in [
                (1, 64, 0),
                (4, 64, 1),
                (5, 64, 1000),
                (67, 64, 1000),
                (4, 257, 0),
                (17, 257, 1),
                (1, 257, 1000),
                (8, 257, 1000),
                (67, 257, 35),
            ] {
                assert_batch_kernel_identity(&mut rng, dim, qcount, rows);
            }
        });
    }
}

#[test]
fn filter_top_p_with_kernel_equals_full_sort_prefix_at_multiple_dims() {
    // `filter_top_p` now scores through the blocked kernel; the selection
    // must still return exactly the first p entries of the full ranking for
    // every p, at embedding dimensionalities on both sides of the lane
    // width (ties forced by drawing database values from a tiny set).
    let mut rng = StdRng::seed_from_u64(0xF1B2);
    let abs = abs_distance();
    for case in 0..CASES {
        let len = rng.gen_range(5..50usize);
        let dim = rng.gen_range(1..9usize);
        let db: Vec<f64> = if case % 2 == 0 {
            (0..len).map(|_| rng.gen_range(-100.0..100.0)).collect()
        } else {
            (0..len).map(|_| rng.gen_range(0..4) as f64).collect()
        };
        let coords: Vec<OneDEmbedding<f64>> = (0..dim)
            .map(|i| OneDEmbedding::reference(Candidate::new(i % len, db[i % len])))
            .collect();
        let index = FilterRefineIndex::build_global(CompositeEmbedding::new(coords), &db, &abs);
        let query = rng.gen_range(-100.0..100.0);
        let (full, _) = index.filter_ranking(&query, &abs);
        for p in 1..=len {
            let (top, _) = index.filter_top_p(&query, &abs, p);
            assert_eq!(top, full[..p], "case {case}, dim {dim}, p = {p}");
        }
    }
}

#[test]
fn top_p_selection_equals_full_sort_prefix_on_random_inputs() {
    // The filter hot path: for random embedded databases (including
    // duplicated scores, which exercise the by-index tie-break), the O(n)
    // selection must return exactly the first p entries of the full sort,
    // for every p.
    let mut rng = StdRng::seed_from_u64(0xE4);
    let abs = abs_distance();
    for case in 0..CASES {
        let len = rng.gen_range(5..60usize);
        // Half the cases draw from a tiny value set to force score ties.
        let db: Vec<f64> = if case % 2 == 0 {
            (0..len).map(|_| rng.gen_range(-100.0..100.0)).collect()
        } else {
            (0..len).map(|_| rng.gen_range(0..4) as f64).collect()
        };
        let embedding =
            CompositeEmbedding::new(vec![OneDEmbedding::reference(Candidate::new(0, db[0]))]);
        let index = FilterRefineIndex::build_global(embedding, &db, &abs);
        let query = rng.gen_range(-100.0..100.0);
        let (full, _) = index.filter_ranking(&query, &abs);
        for p in 1..=len {
            let (top, _) = index.filter_top_p(&query, &abs, p);
            assert_eq!(top, full[..p], "case {case}, p = {p}");
        }
    }
}
