//! Guarantees of the pluggable filter-store precision backends.
//!
//! The refactor's contract has three parts, each pinned here:
//!
//! 1. **The `f64` backend is the old index** — the generic `_with_store`
//!    constructors instantiated at `f64` produce results bit-identical to
//!    the historical builders (whose own identity to the scalar path is
//!    pinned by `tests/property_tests.rs`).
//! 2. **Lossy backends are correctness-guarded by refine** — with the
//!    filter step running over `f32` or `u8` storage, the exact-distance
//!    refine step must still return exactly the `f64` pipeline's neighbors
//!    (recall@k = 1.0) on the standard clustered workloads, for both the
//!    query-sensitive and the global-L1 index, sequentially and batched.
//! 3. **Quantization error is bounded** — raw `u8` decode-path filter
//!    scores stay within `Σ_j w_j · scale_j / 2` of the exact scores (the
//!    grid's half-step bound), the in-domain integer SAD scores the
//!    retrieval pipelines actually use stay within the **widened
//!    two-sided** bound `Σ_j w_j · scale_j` (store + query rounding; see
//!    `qse_distance::sad`), and `f32` scores within single-precision
//!    rounding.
//!
//! Plus the edge suite every backend must mirror (dim-0 stores, empty
//! stores, insert-after-empty), the `p_scale` oversampling knob with its
//! per-backend default (`2.0` for `u8` under the widened bound) and its
//! `⌈p·s⌉ > n` cap, and the PR 5 drift-recovery policy: `u8` inserts far
//! outside the fitted grid saturate (pinned as a real failure mode) and
//! `DynamicIndex::refit_store` / `retrain` recover in place.

use query_sensitive_embeddings::prelude::*;
use query_sensitive_embeddings::retrieval::knn::knn;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn clustered(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let c = rng.gen_range(0..9);
            vec![
                (c % 3) as f64 * 14.0 + rng.gen_range(-1.0..1.0),
                (c / 3) as f64 * 14.0 + rng.gen_range(-1.0..1.0),
            ]
        })
        .collect()
}

fn train_model(db: &[Vec<f64>]) -> QseModel<Vec<f64>> {
    let d = LpDistance::l2();
    let pools: Vec<Vec<f64>> = db.iter().take(60).cloned().collect();
    let data = TrainingData::precompute(pools.clone(), pools, &d, 6);
    let mut rng = StdRng::seed_from_u64(1717);
    let triples = TripleSampler::selective(4).sample(&data.train_to_train, 600, &mut rng);
    BoostMapTrainer::new(TrainerConfig::quick()).train(&data, &triples, &mut rng)
}

fn fastmap(db: &[Vec<f64>]) -> FastMap<Vec<f64>> {
    let d = LpDistance::l2();
    let mut rng = StdRng::seed_from_u64(2727);
    let sample: Vec<Vec<f64>> = db.iter().take(60).cloned().collect();
    FastMap::train(
        &sample,
        &d,
        FastMapConfig {
            dimensions: 6,
            pivot_iterations: 3,
        },
        &mut rng,
    )
}

#[test]
fn f64_with_store_builders_match_the_historical_builders_bitwise() {
    let db = clustered(300, 11);
    let d = LpDistance::l2();
    let queries = clustered(24, 13);
    let (k, p) = (4, 30);

    let model = train_model(&db);
    let old = FilterRefineIndex::build_query_sensitive(model.clone(), &db, &d);
    let new = FilterRefineIndex::<_, f64>::build_query_sensitive_with_store(model, &db, &d);
    assert_eq!(old.vectors(), new.vectors(), "stores must be identical");
    for q in &queries {
        assert_eq!(
            old.retrieve(q, &db, &d, k, p),
            new.retrieve(q, &db, &d, k, p)
        );
    }

    let old = FilterRefineIndex::build_global(fastmap(&db), &db, &d);
    let new = FilterRefineIndex::<_, f64>::build_global_with_store(fastmap(&db), &db, &d);
    assert_eq!(old.vectors(), new.vectors(), "stores must be identical");
    assert_eq!(
        old.retrieve_batch(&queries, &db, &d, k, p),
        new.retrieve_batch(&queries, &db, &d, k, p)
    );
}

/// Retrieval through a lossy store must report exactly the `f64` pipeline's
/// neighbors once refine has recomputed exact distances: recall@k = 1.0 on
/// the clustered workloads, per query, sequentially and batched.
fn assert_lossy_backend_recall_is_perfect<E: FilterElem>() {
    let db = clustered(400, 21);
    let d = LpDistance::l2();
    let queries = clustered(40, 23); // crosses the 16-query tile boundary
    let (k, p) = (5, 50);

    // Query-sensitive index.
    let model = train_model(&db);
    let exact = FilterRefineIndex::build_query_sensitive(model.clone(), &db, &d);
    let lossy = FilterRefineIndex::<_, E>::build_query_sensitive_with_store(model, &db, &d);
    let exact_batch = exact.retrieve_batch(&queries, &db, &d, k, p);
    let lossy_batch = lossy.retrieve_batch(&queries, &db, &d, k, p);
    for (q, query) in queries.iter().enumerate() {
        assert_eq!(
            lossy_batch[q].neighbors,
            exact_batch[q].neighbors,
            "{} seqs: recall@{k} < 1.0 for query {q}",
            E::NAME
        );
        assert_eq!(
            lossy.retrieve(query, &db, &d, k, p),
            lossy_batch[q],
            "{} seqs: batch/sequential divergence for query {q}",
            E::NAME
        );
    }

    // Global-L1 (FastMap) index.
    let exact = FilterRefineIndex::build_global(fastmap(&db), &db, &d);
    let lossy = FilterRefineIndex::<_, E>::build_global_with_store(fastmap(&db), &db, &d);
    let exact_batch = exact.retrieve_batch(&queries, &db, &d, k, p);
    let lossy_batch = lossy.retrieve_batch(&queries, &db, &d, k, p);
    for q in 0..queries.len() {
        assert_eq!(
            lossy_batch[q].neighbors,
            exact_batch[q].neighbors,
            "{} fastmap: recall@{k} < 1.0 for query {q}",
            E::NAME
        );
    }
}

#[test]
fn f32_pipeline_recall_matches_f64_exactly() {
    assert_lossy_backend_recall_is_perfect::<f32>();
}

#[test]
fn u8_pipeline_recall_matches_f64_exactly() {
    assert_lossy_backend_recall_is_perfect::<u8>();
}

#[test]
fn u8_raw_filter_scores_respect_the_half_grid_step_bound() {
    let mut rng = StdRng::seed_from_u64(31);
    for dim in [3, 8, 32] {
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|_| (0..dim).map(|_| rng.gen_range(-15.0..15.0)).collect())
            .collect();
        let weights: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.1..2.0)).collect();
        let query: Vec<f64> = (0..dim).map(|_| rng.gen_range(-15.0..15.0)).collect();
        let d = WeightedL1::new(weights.clone());
        let exact = FlatVectors::from_rows_with_dim(dim, rows.clone());
        let quant = FlatStore::<u8>::from_rows_with_dim(dim, rows);
        let bound: f64 = weights
            .iter()
            .zip(&quant.params().scale)
            .map(|(w, s)| w * s / 2.0)
            .sum::<f64>()
            * (1.0 + 1e-9)
            + 1e-9;
        let mut s_exact = vec![0.0; exact.len()];
        d.eval_filter(&query, &exact, &mut s_exact);
        // The store-side bound is about the decoded rows themselves.
        let s_quant: Vec<f64> = (0..quant.len())
            .map(|i| d.eval(&query, &quant.decode_row(i)))
            .collect();
        for (i, (a, b)) in s_exact.iter().zip(&s_quant).enumerate() {
            assert!(
                (a - b).abs() <= bound,
                "dim {dim}, row {i}: |{a} - {b}| > {bound}"
            );
        }
    }
}

#[test]
fn f32_raw_filter_scores_stay_within_single_precision_rounding() {
    let mut rng = StdRng::seed_from_u64(37);
    let dim = 16;
    let rows: Vec<Vec<f64>> = (0..200)
        .map(|_| (0..dim).map(|_| rng.gen_range(-50.0..50.0)).collect())
        .collect();
    let weights: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.1..2.0)).collect();
    let query: Vec<f64> = (0..dim).map(|_| rng.gen_range(-50.0..50.0)).collect();
    let d = WeightedL1::new(weights.clone());
    let exact = FlatVectors::from_rows_with_dim(dim, rows.clone());
    let single = FlatStore::<f32>::from_rows_with_dim(dim, rows.clone());
    let mut s_exact = vec![0.0; exact.len()];
    let mut s_single = vec![0.0; single.len()];
    d.eval_filter(&query, &exact, &mut s_exact);
    d.eval_filter(&query, &single, &mut s_single);
    for (i, (a, b)) in s_exact.iter().zip(&s_single).enumerate() {
        // Per-coordinate f32 rounding is at most |v| · 2⁻²⁴; doubling the
        // exponent covers the summation's own rounding comfortably.
        let bound: f64 = weights
            .iter()
            .zip(&rows[i])
            .map(|(w, b)| w * b.abs())
            .sum::<f64>()
            * 2f64.powi(-23)
            + 1e-9;
        assert!((a - b).abs() <= bound, "row {i}: |{a} - {b}| > {bound}");
    }
}

/// The dim-0 / empty-store / insert-after-empty edge suite, per backend —
/// mirrors the `f64` regressions in `qse-distance` and `qse-retrieval`.
fn assert_backend_edge_cases<E: FilterElem>() {
    let d = LpDistance::l2();
    // Dynamic index over an initially empty database: the store must carry
    // the model's dimensionality (and the backend's default grid) so online
    // inserts work immediately.
    let model = train_model(&clustered(120, 41));
    let mut index = DynamicIndex::<_, E>::with_store(model, Vec::new(), &d);
    assert!(index.is_empty(), "{}", E::NAME);
    let a = index.insert(vec![0.1, 0.0], &d);
    let b = index.insert(vec![14.2, 14.1], &d);
    assert_eq!((a, b), (0, 1), "{}", E::NAME);
    let hit = index.retrieve(&vec![0.0, 0.0], &d, 1, 2);
    assert_eq!(hit.len(), 1, "{}", E::NAME);
    index.remove(0);
    assert_eq!(index.len(), 1, "{}", E::NAME);

    // knn over a dim-0 store: every distance is the empty sum, ties break
    // by index — including through the batched tiled pipeline.
    let mut store = FlatStore::<E>::with_dim(0);
    let mut queries = FlatVectors::with_dim(0);
    for _ in 0..4 {
        store.push(&[]);
    }
    for _ in 0..3 {
        queries.push(&[]);
    }
    for result in knn_flat_batch(&WeightedL1::new(Vec::new()), &queries, &store, 2) {
        assert_eq!(result.neighbors, vec![0, 1], "{}", E::NAME);
        assert_eq!(result.distances, vec![0.0, 0.0], "{}", E::NAME);
    }
    // Empty query batches write nothing, even with out-of-range k.
    let empty = FlatVectors::with_dim(0);
    assert!(
        knn_flat_batch(&WeightedL1::new(Vec::new()), &empty, &store, 9).is_empty(),
        "{}",
        E::NAME
    );
}

#[test]
fn f32_edge_cases_match_the_f64_suite() {
    assert_backend_edge_cases::<f32>();
}

#[test]
fn u8_edge_cases_match_the_f64_suite() {
    assert_backend_edge_cases::<u8>();
}

#[test]
fn p_scale_widens_the_filter_candidate_set() {
    let db = clustered(300, 51);
    let d = LpDistance::l2();
    let model = train_model(&db);
    let queries = clustered(10, 53);
    let (k, p) = (3, 20);

    // p_scale = 1.0 (explicitly or by default) changes nothing.
    let base = FilterRefineIndex::build_query_sensitive(model.clone(), &db, &d);
    let unit = FilterRefineIndex::build_query_sensitive(model.clone(), &db, &d).with_p_scale(1.0);
    assert_eq!(base.p_scale(), 1.0);
    for q in &queries {
        assert_eq!(
            base.retrieve(q, &db, &d, k, p),
            unit.retrieve(q, &db, &d, k, p)
        );
    }

    // An oversampled quantized index refines ⌈p · p_scale⌉ candidates (the
    // reported refine cost), capped at the database size, and the batched
    // path agrees with the sequential one.
    let quant =
        FilterRefineIndex::<_, u8>::build_query_sensitive_with_store(model.clone(), &db, &d)
            .with_p_scale(2.5);
    let outcome = quant.retrieve(&queries[0], &db, &d, k, p);
    assert_eq!(outcome.refine_cost, 50);
    let batch = quant.retrieve_batch(&queries, &db, &d, k, p);
    for (q, query) in queries.iter().enumerate() {
        assert_eq!(batch[q], quant.retrieve(query, &db, &d, k, p));
    }
    let capped =
        FilterRefineIndex::<_, u8>::build_query_sensitive_with_store(model.clone(), &db, &d)
            .with_p_scale(1e6);
    assert_eq!(
        capped.retrieve(&queries[0], &db, &d, k, p).refine_cost,
        db.len()
    );

    // Oversampling can only grow the candidate set, so the refined top-k is
    // at least as close to the truth: with p_scale covering the whole
    // database the result equals exact brute force.
    let truth = knn(&queries[0], &db, &d, k);
    assert_eq!(
        capped.retrieve(&queries[0], &db, &d, k, p).neighbors,
        truth.neighbors
    );

    // The dynamic index carries the same knob.
    let dynamic = DynamicIndex::new(model, db.clone(), &d).with_p_scale(2.0);
    let hits = dynamic.retrieve(&queries[0], &d, k, p);
    assert_eq!(hits.len(), k);
}

#[test]
#[should_panic(expected = "at least 1.0")]
fn p_scale_rejects_shrinking_factors() {
    let db = clustered(120, 61);
    let d = LpDistance::l2();
    let _ = FilterRefineIndex::build_query_sensitive(train_model(&db), &db, &d).with_p_scale(0.5);
}

/// A hand-built, query-*insensitive* model over 2-D vectors: `dim`
/// reference coordinates with full-interval unit-alpha learners, so the
/// filter distance is the plain L1 between reference-distance embeddings
/// for every query — deterministic behavior even for queries far outside
/// the training region (no splitter can zero the weights there).
fn reference_model(references: &[Vec<f64>]) -> QseModel<Vec<f64>> {
    use query_sensitive_embeddings::core::model::TrainingHistory;
    use query_sensitive_embeddings::core::{Interval, WeakLearner};
    use query_sensitive_embeddings::embedding::one_d::Candidate;
    let coordinates: Vec<OneDEmbedding<Vec<f64>>> = references
        .iter()
        .enumerate()
        .map(|(i, r)| OneDEmbedding::reference(Candidate::new(i, r.clone())))
        .collect();
    let learners = (0..references.len())
        .map(|coordinate| WeakLearner {
            coordinate,
            interval: Interval::full(),
            alpha: 1.0,
        })
        .collect();
    QseModel::new(coordinates, learners, TrainingHistory::default())
}

/// The widened (store + query) quantization bound through the pipeline's
/// actual entry points: integer-path `u8` filter scores must stay within
/// `Σ_j w_j · scale_j` (+ the negligible weight-rounding term) of the
/// exact `f64` filter scores — twice the store-only half-step bound,
/// because the in-domain path quantizes the query side too.
#[test]
fn u8_integer_filter_scores_respect_the_widened_two_sided_bound() {
    use query_sensitive_embeddings::distance::SadQuery;
    let mut rng = StdRng::seed_from_u64(67);
    for dim in [3, 8, 32] {
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|_| (0..dim).map(|_| rng.gen_range(-15.0..15.0)).collect())
            .collect();
        let weights: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.1..2.0)).collect();
        let query: Vec<f64> = (0..dim).map(|_| rng.gen_range(-15.0..15.0)).collect();
        let d = WeightedL1::new(weights.clone());
        let exact = FlatVectors::from_rows_with_dim(dim, rows.clone());
        let quant = FlatStore::<u8>::from_rows_with_dim(dim, rows);
        let store_bound: f64 = weights
            .iter()
            .zip(&quant.params().scale)
            .map(|(w, s)| w * s / 2.0)
            .sum();
        let query_bound = SadQuery::new(&weights, &query, quant.params()).score_error_bound();
        let bound = (store_bound + query_bound) * (1.0 + 1e-9) + 1e-9;
        let mut s_exact = vec![0.0; exact.len()];
        let mut s_int = vec![0.0; quant.len()];
        d.eval_filter(&query, &exact, &mut s_exact);
        d.eval_filter(&query, &quant, &mut s_int);
        for (i, (a, b)) in s_exact.iter().zip(&s_int).enumerate() {
            assert!(
                (a - b).abs() <= bound,
                "dim {dim}, row {i}: |{a} - {b}| > {bound}"
            );
        }
        // The query-sensitive entry point runs the same integer path: an
        // EmbeddedQuery with these weights produces identical scores.
        let eq = EmbeddedQuery {
            coordinates: query.clone(),
            weights: weights.clone(),
        };
        let mut s_eq = vec![0.0; quant.len()];
        eq.score_filter(&quant, &mut s_eq);
        assert_eq!(s_eq, s_int, "dim {dim}");
    }
}

/// The backend-suggested oversampling default: `u8` indexes start at
/// `p_scale = 2.0` (the widened two-sided error bound needs a wider
/// filter net), the exact backends at `1.0`, and `with_p_scale` still
/// overrides both ways.
#[test]
fn u8_indexes_default_to_the_widened_oversampling_factor() {
    let db = clustered(150, 71);
    let d = LpDistance::l2();
    let model = train_model(&db);
    let f64_index = FilterRefineIndex::build_query_sensitive(model.clone(), &db, &d);
    assert_eq!(f64_index.p_scale(), 1.0);
    let f32_index =
        FilterRefineIndex::<_, f32>::build_query_sensitive_with_store(model.clone(), &db, &d);
    assert_eq!(f32_index.p_scale(), 1.0);
    let u8_index =
        FilterRefineIndex::<_, u8>::build_query_sensitive_with_store(model.clone(), &db, &d);
    assert_eq!(u8_index.p_scale(), 2.0);
    assert_eq!(u8_index.with_p_scale(1.0).p_scale(), 1.0);
    // The refine cost reports the doubled candidate count by default.
    let u8_index =
        FilterRefineIndex::<_, u8>::build_query_sensitive_with_store(model.clone(), &db, &d);
    let outcome = u8_index.retrieve(&db[0], &db, &d, 3, 20);
    assert_eq!(outcome.refine_cost, 40);
    // The dynamic index inherits the same backend default.
    let dynamic = DynamicIndex::<_, u8>::with_store(model.clone(), db.clone(), &d);
    assert_eq!(dynamic.p_scale(), 2.0);
    assert_eq!(DynamicIndex::new(model, db, &d).p_scale(), 1.0);
}

/// `⌈p · p_scale⌉ > n` must cap at the database size on every retrieve
/// path — static, dynamic, sequential and batched — and a capped filter
/// degenerates to exact brute force (refine sees everything).
#[test]
fn p_scale_products_beyond_the_database_size_are_capped() {
    let db = clustered(60, 73);
    let d = LpDistance::l2();
    let model = train_model(&db);
    let queries = clustered(5, 79);
    let (k, p) = (2, 40);

    // Static u8 index: ⌈40 · 2.0⌉ = 80 > 60 caps at 60 ⇒ exact results.
    let quant =
        FilterRefineIndex::<_, u8>::build_query_sensitive_with_store(model.clone(), &db, &d);
    for q in &queries {
        let outcome = quant.retrieve(q, &db, &d, k, p);
        assert_eq!(outcome.refine_cost, db.len());
        assert_eq!(outcome.neighbors, knn(q, &db, &d, k).neighbors);
    }
    for (q, outcome) in queries
        .iter()
        .zip(quant.retrieve_batch(&queries, &db, &d, k, p))
    {
        assert_eq!(outcome.refine_cost, db.len());
        assert_eq!(outcome.neighbors, knn(q, &db, &d, k).neighbors);
    }

    // Dynamic u8 index: the cap tracks the *current* size across edits.
    let mut dynamic = DynamicIndex::<_, u8>::with_store(model, db.clone(), &d).with_p_scale(1e6);
    let expected: Vec<usize> = knn(&queries[0], &db, &d, k).neighbors;
    assert_eq!(dynamic.retrieve(&queries[0], &d, k, p), expected);
    dynamic.remove(db.len() - 1);
    let hits = dynamic.retrieve(&queries[0], &d, k, k);
    assert_eq!(hits.len(), k);
    assert_eq!(
        dynamic.retrieve_batch(&queries, &d, k, k),
        queries
            .iter()
            .map(|q| dynamic.retrieve(q, &d, k, k))
            .collect::<Vec<_>>()
    );
}

/// Online inserts far outside the fitted `u8` grid saturate to the grid
/// edge — the filter cannot separate them — and one
/// `DynamicIndex::refit_store` refits the grid over the current database
/// and restores full filter resolution, without rebuilding the index.
#[test]
fn u8_insert_saturation_recovers_after_refit() {
    let d = LpDistance::l2();
    // Initial database near the origin; grid fitted over it.
    let initial: Vec<Vec<f64>> = (0..40)
        .map(|i| vec![(i % 8) as f64, (i / 8) as f64])
        .collect();
    let model = reference_model(&[vec![0.0, 0.0], vec![10.0, 0.0]]);
    let mut index = DynamicIndex::<_, u8>::with_store(model, initial.clone(), &d);
    let n0 = index.len();

    // Drift: a stream of inserts far outside the fitted grid. Their
    // embedded rows saturate, so their stored codes are all identical.
    let far: Vec<Vec<f64>> = (0..12)
        .map(|i| vec![200.0 + 5.0 * i as f64, 200.0])
        .collect();
    let far_ids: Vec<usize> = far.iter().map(|o| index.insert(o.clone(), &d)).collect();
    let first_far = *far_ids.first().unwrap();
    let last_far = *far_ids.last().unwrap();
    assert_eq!(
        index.vectors().decode_row(first_far),
        index.vectors().decode_row(last_far),
        "saturated inserts must collapse onto the grid edge"
    );

    // A query equal to the *last* far insert: every saturated row ties in
    // the filter, ties break by index, and with a tight p the true
    // nearest neighbor (the duplicate itself) never reaches the refine
    // step — retrieval returns a wrong, far-away object.
    let query = far.last().unwrap().clone();
    let before = index.retrieve(&query, &d, 1, 1);
    assert_ne!(
        before[0], last_far,
        "saturated filter should misrank the drifted region"
    );
    assert!(before[0] >= n0, "ties still land inside the drifted region");

    // One in-place refit: the grid now spans the drifted data, codes
    // separate, and the duplicate is found with the same tight p.
    index.refit_store(&d);
    let refit_decoded = index.vectors().decode_row(last_far);
    assert_ne!(
        index.vectors().decode_row(first_far),
        refit_decoded,
        "refit grid must separate the drifted rows"
    );
    let after = index.retrieve(&query, &d, 1, 1);
    assert_eq!(after[0], last_far, "refit must restore the true neighbor");
}

/// `DynamicIndex::retrain` swaps the model in place (here with a
/// different output dimensionality), re-embeds the current database and
/// refits the grid: the index must behave exactly like one freshly built
/// from the new model over the same objects.
#[test]
fn retrain_matches_a_freshly_built_index_and_changes_dim() {
    let d = LpDistance::l2();
    let objects: Vec<Vec<f64>> = (0..50)
        .map(|i| vec![(i % 10) as f64 * 1.5, (i / 10) as f64 * 2.0])
        .collect();
    let old_model = reference_model(&[vec![0.0, 0.0], vec![15.0, 0.0]]);
    let new_model = reference_model(&[vec![0.0, 10.0], vec![15.0, 10.0], vec![7.0, 0.0]]);

    let mut retrained = DynamicIndex::<_, u8>::with_store(old_model, objects.clone(), &d);
    // Mutate online first, so the retrain covers a live index.
    let extra = retrained.insert(vec![3.3, 4.4], &d);
    retrained.retrain(new_model.clone(), &d);
    assert_eq!(retrained.model().dim(), 3);

    let mut fresh = DynamicIndex::<_, u8>::with_store(new_model, objects, &d);
    let fresh_extra = fresh.insert(vec![3.3, 4.4], &d);
    assert_eq!(extra, fresh_extra);
    assert_eq!(
        retrained.vectors().params(),
        fresh.vectors().params(),
        "retrain must refit the grid exactly as a fresh build does"
    );
    let queries: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64, 8.0 - i as f64]).collect();
    for q in &queries {
        assert_eq!(
            retrained.retrieve(q, &d, 3, 10),
            fresh.retrieve(q, &d, 3, 10)
        );
    }
    assert_eq!(
        retrained.retrieve_batch(&queries, &d, 3, 10),
        fresh.retrieve_batch(&queries, &d, 3, 10)
    );
}
