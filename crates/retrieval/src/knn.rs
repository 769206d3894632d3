//! Brute-force exact k-nearest-neighbor search.
//!
//! Every accuracy number in the paper is measured against the *true* k
//! nearest neighbors under the exact distance `DX`, and the cost baseline is
//! brute force: *"brute force search would require 60000 exact distance
//! computations in the MNIST dataset and 31818 ... in the time series
//! dataset"* (Table 1 caption). This module provides that ground truth,
//! computed in parallel across queries on the rayon substrate.
//!
//! The bounded top-k routine here, `top_k`, is also the refine step of
//! every retrieval index: it keeps the best `k` under a NaN-safe
//! `(distance, key)` order and hands each later candidate the current k-th
//! best distance as a [`DistanceMeasure::distance_within`] cutoff, so a
//! measure that can abandon early (constrained DTW) stops on candidates
//! that cannot enter. Every candidate still costs exactly one call.

use crate::filter_refine::{top_p_by_score, RetrievalOutcome};
use qse_distance::{DistanceMeasure, FilterElem, FlatStore, FlatVectors, WeightedL1};
use rayon::prelude::*;

/// The result of an exact k-NN query.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnResult {
    /// Indices of the k nearest database objects, closest first.
    pub neighbors: Vec<usize>,
    /// The corresponding exact distances.
    pub distances: Vec<f64>,
}

/// Exact k nearest neighbors of `query` within `database` (ties broken by
/// index for determinism).
///
/// # Panics
/// Panics if `k` is zero or exceeds the database size.
pub fn knn<O, D>(query: &O, database: &[O], distance: &D, k: usize) -> KnnResult
where
    D: DistanceMeasure<O> + ?Sized,
{
    assert!(k >= 1, "k must be at least 1");
    assert!(
        k <= database.len(),
        "k = {k} exceeds the database size {}",
        database.len()
    );
    top_k(query, database.iter().enumerate(), distance, k)
}

/// The `k` nearest of `candidates`, `(key, object)` pairs, under the strict
/// total order `(distance, key)`; the neighbors are the keys, closest
/// first. Once `k` candidates are held, each later one is measured with
/// [`DistanceMeasure::distance_within`] against the k-th best distance. A
/// value above that cutoff loses to the k-th best whatever its key, so the
/// outcome equals ranking every exact distance, and each candidate costs
/// exactly one call.
pub(crate) fn top_k<'a, O: 'a, D>(
    query: &O,
    candidates: impl IntoIterator<Item = (usize, &'a O)>,
    distance: &D,
    k: usize,
) -> KnnResult
where
    D: DistanceMeasure<O> + ?Sized,
{
    let mut best: Vec<(usize, f64)> = Vec::with_capacity(k + 1);
    for (key, object) in candidates {
        let cutoff = best
            .get(k.saturating_sub(1))
            .map_or(f64::INFINITY, |&(_, d)| d);
        let d = distance.distance_within(query, object, cutoff);
        let at = best.partition_point(|&(j, e)| e.total_cmp(&d).then(j.cmp(&key)).is_lt());
        if at < k {
            best.insert(at, (key, d));
            best.truncate(k);
        }
    }
    KnnResult {
        neighbors: best.iter().map(|&(i, _)| i).collect(),
        distances: best.iter().map(|&(_, d)| d).collect(),
    }
}

/// The refine step of the static and routed indexes: the best `k` of the
/// filter `candidates` (database indices), ties broken by database index.
/// A candidate **set** determines the outcome whatever order it arrives
/// in, which is what keeps those pipelines identical to each other.
pub(crate) fn refine_candidates<O>(
    query: &O,
    database: &[O],
    distance: &dyn DistanceMeasure<O>,
    k: usize,
    candidates: &[usize],
    embedding_cost: usize,
) -> RetrievalOutcome {
    let pairs = candidates.iter().map(|&i| (i, &database[i]));
    let refined = top_k(query, pairs, distance, k);
    RetrievalOutcome {
        neighbors: refined.neighbors,
        distances: refined.distances,
        embedding_cost,
        refine_cost: candidates.len(),
    }
}

/// The refine step of the online indexes (dynamic and concurrent): the best
/// `k` of the filter candidates `order` (global ids in filter order), read
/// in place through `object`, with ties broken by filter position.
pub(crate) fn refine_in_place<'a, O: 'a>(
    query: &O,
    order: &[usize],
    object: impl Fn(usize) -> &'a O,
    distance: &dyn DistanceMeasure<O>,
    k: usize,
    embedding_cost: usize,
) -> RetrievalOutcome {
    let pairs = order.iter().map(|&g| object(g)).enumerate();
    let refined = top_k(query, pairs, distance, k);
    RetrievalOutcome {
        neighbors: refined.neighbors.into_iter().map(|i| order[i]).collect(),
        distances: refined.distances,
        embedding_cost,
        refine_cost: order.len(),
    }
}

/// Exact k nearest neighbors of an embedded `query` within a flat row-major
/// vector store under a (weighted) L1 distance, computed with the filter
/// scan [`WeightedL1::eval_filter`] — one allocation-free pass over
/// the contiguous buffer — followed by an O(n) selection under the same
/// `(score, index)` order as [`knn`].
///
/// This is the brute-force path for databases that *are* vectors (or whose
/// exact distance is the embedded one): `WeightedL1::uniform(dim)` gives
/// plain L1, per-query weights give the query-sensitive `D_out`. The scan
/// dispatches through the backend's `FilterElem::scan_filter` hook: on the
/// default `f64` store the reported neighbors are identical to calling
/// `distance.eval` row by row (the kernel is bit-identical to the scalar
/// path); on `f32` the ranking and distances are computed over the decoded
/// rows; on `u8` the scan runs the in-domain integer SAD kernel
/// (`qse_distance::sad`) — the query is quantized onto the store's grid,
/// so both ranking and reported distances additionally carry the
/// documented bounded query-side quantization error (appropriate only
/// when a cheap approximate ranking is acceptable or the caller refines
/// afterwards).
///
/// # Panics
/// Panics if `k` is zero or exceeds the store size, or on dimensionality
/// mismatch between `distance`, `query` and `vectors`.
pub fn knn_flat<E: FilterElem>(
    distance: &WeightedL1,
    query: &[f64],
    vectors: &FlatStore<E>,
    k: usize,
) -> KnnResult {
    assert!(k >= 1, "k must be at least 1");
    assert!(
        k <= vectors.len(),
        "k = {k} exceeds the database size {}",
        vectors.len()
    );
    let mut scores = vec![0.0; vectors.len()];
    distance.eval_filter(query, vectors, &mut scores);
    let neighbors = top_p_by_score(&scores, k);
    let distances = neighbors.iter().map(|&i| scores[i]).collect();
    KnnResult {
        neighbors,
        distances,
    }
}

/// Exact k nearest neighbors of every row of an embedded query batch within
/// a flat vector store, under a (weighted) L1 distance.
///
/// The batched counterpart of [`knn_flat`], running the same tiled pipeline
/// as the retrieval indexes (`filter_refine::tiled_query_pipeline`): the
/// batch is cut into query tiles fanned out across the persistent worker
/// pool, each tile scored in one pass of the tiled filter scan
/// [`WeightedL1::eval_filter_batch_range`] (the tile's query rows stay
/// cache-resident while the store streams once per tile; no batch-sized
/// score matrix is ever materialized), followed by the O(n)
/// `(score, index)` selection per query on the tile's still-hot rows.
/// Results are in query order and identical to calling [`knn_flat`] per
/// query, at any thread count; query rows repeated within one tile reuse
/// the first occurrence's result through the pipeline's duplicate-query
/// memo (sound here because the result is a pure function of the row
/// values). An empty query batch returns an empty vector.
///
/// # Panics
/// As [`knn_flat`] (when the batch is non-empty), plus on dimensionality
/// mismatch between `queries` and `vectors`.
pub fn knn_flat_batch<E: FilterElem>(
    distance: &WeightedL1,
    queries: &FlatVectors,
    vectors: &FlatStore<E>,
    k: usize,
) -> Vec<KnnResult> {
    if queries.is_empty() {
        return Vec::new();
    }
    assert!(k >= 1, "k must be at least 1");
    assert!(
        k <= vectors.len(),
        "k = {k} exceeds the database size {}",
        vectors.len()
    );
    crate::filter_refine::tiled_query_pipeline(
        queries.len(),
        vectors.len(),
        k,
        |a, b| queries.row(a) == queries.row(b),
        |q0, q1, scores| distance.eval_filter_batch_range(queries, q0, q1, vectors, scores),
        |_q, row, order| KnnResult {
            neighbors: order.to_vec(),
            distances: order.iter().map(|&i| row[i]).collect(),
        },
    )
}

/// Exact `kmax` nearest neighbors for every query, computed across rayon
/// worker threads (`threads <= 1` forces the sequential path; larger values
/// enable the parallel path, whose width follows `RAYON_NUM_THREADS`).
///
/// This is the (expensive) ground-truth step of the evaluation harness; its
/// cost is `|queries| · |database|` exact distance computations.
pub fn ground_truth<O, D>(
    queries: &[O],
    database: &[O],
    distance: &D,
    kmax: usize,
    threads: usize,
) -> Vec<KnnResult>
where
    O: Sync,
    D: DistanceMeasure<O> + Sync + ?Sized,
{
    assert!(!queries.is_empty(), "need at least one query");
    if threads <= 1 || queries.len() < 2 {
        return queries
            .iter()
            .map(|q| knn(q, database, distance, kmax))
            .collect();
    }
    queries
        .par_iter()
        .map(|q| knn(q, database, distance, kmax))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_distance::traits::{FnDistance, MetricProperties};
    use qse_distance::CountingDistance;

    fn abs() -> FnDistance<impl Fn(&f64, &f64) -> f64 + Send + Sync> {
        FnDistance::new("abs", MetricProperties::Metric, |a: &f64, b: &f64| {
            (a - b).abs()
        })
    }

    #[test]
    fn finds_the_true_nearest_neighbors_in_order() {
        let db = vec![10.0, 0.0, 5.0, 2.0, 8.0];
        let res = knn(&1.0, &db, &abs(), 3);
        assert_eq!(res.neighbors, vec![1, 3, 2]);
        assert_eq!(res.distances, vec![1.0, 1.0, 4.0]);
    }

    #[test]
    fn ties_break_by_index() {
        let db = vec![2.0, 0.0, 2.0];
        let res = knn(&1.0, &db, &abs(), 3);
        assert_eq!(res.neighbors, vec![0, 1, 2]);
    }

    #[test]
    fn brute_force_cost_is_database_size() {
        let db: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let counting = CountingDistance::new(abs());
        let _ = knn(&7.3, &db, &counting, 5);
        assert_eq!(counting.count(), 50);
    }

    #[test]
    fn parallel_ground_truth_matches_sequential() {
        let db: Vec<f64> = (0..40).map(|i| (i as f64) * 1.7).collect();
        let queries: Vec<f64> = (0..9).map(|i| i as f64 * 3.1 + 0.4).collect();
        let seq = ground_truth(&queries, &db, &abs(), 5, 1);
        let par = ground_truth(&queries, &db, &abs(), 5, 4);
        assert_eq!(seq, par);
    }

    #[test]
    #[should_panic(expected = "exceeds the database size")]
    fn rejects_oversized_k() {
        let _ = knn(&0.0, &[1.0, 2.0], &abs(), 3);
    }

    #[test]
    fn knn_flat_matches_generic_knn_under_l1() {
        use qse_distance::{FlatVectors, LpDistance, WeightedL1};
        let rows: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i % 7) as f64, (i % 5) as f64 * 1.3, i as f64 * 0.11])
            .collect();
        let query = vec![2.5, 1.9, 1.0];
        let truth = knn(&query, &rows, &LpDistance::l1(), 6);
        let flat = FlatVectors::from_rows(rows);
        let result = super::knn_flat(&WeightedL1::uniform(3), &query, &flat, 6);
        assert_eq!(result.neighbors, truth.neighbors);
        for (a, b) in result.distances.iter().zip(&truth.distances) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn knn_flat_batch_matches_per_query_knn_flat() {
        use qse_distance::{FlatVectors, WeightedL1};
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 9) as f64 * 0.7, (i % 4) as f64, i as f64 * 0.05])
            .collect();
        let store = FlatVectors::from_rows(rows);
        // More queries than one kernel tile, to cross the tile boundary.
        let queries = FlatVectors::from_rows(
            (0..21)
                .map(|q| vec![q as f64 * 0.31, (q % 5) as f64, 1.0])
                .collect(),
        );
        let d = WeightedL1::new(vec![1.0, 0.5, 2.0]);
        let batch = super::knn_flat_batch(&d, &queries, &store, 6);
        assert_eq!(batch.len(), queries.len());
        for (q, result) in batch.iter().enumerate() {
            assert_eq!(
                *result,
                super::knn_flat(&d, queries.row(q), &store, 6),
                "query {q}"
            );
        }
    }

    #[test]
    fn knn_flat_batch_on_empty_query_batch_returns_empty() {
        use qse_distance::{FlatVectors, WeightedL1};
        let store = FlatVectors::from_rows(vec![vec![1.0], vec![2.0]]);
        let queries = FlatVectors::with_dim(1);
        assert!(super::knn_flat_batch(&WeightedL1::uniform(1), &queries, &store, 1).is_empty());
        // Zero sequential calls panic on nothing, even with oversized k.
        assert!(super::knn_flat_batch(&WeightedL1::uniform(1), &queries, &store, 9).is_empty());
    }

    #[test]
    fn knn_flat_batch_handles_zero_dimensional_queries() {
        use qse_distance::{FlatVectors, WeightedL1};
        // dim = 0: every distance is the empty sum, ties break by index.
        let mut store = FlatVectors::with_dim(0);
        let mut queries = FlatVectors::with_dim(0);
        for _ in 0..4 {
            store.push(&[]);
        }
        for _ in 0..3 {
            queries.push(&[]);
        }
        let batch = super::knn_flat_batch(&WeightedL1::new(Vec::new()), &queries, &store, 2);
        for result in &batch {
            assert_eq!(result.neighbors, vec![0, 1]);
            assert_eq!(result.distances, vec![0.0, 0.0]);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the database size")]
    fn knn_flat_batch_rejects_oversized_k() {
        use qse_distance::{FlatVectors, WeightedL1};
        let store = FlatVectors::from_rows(vec![vec![1.0]]);
        let queries = FlatVectors::from_rows(vec![vec![0.0]]);
        let _ = super::knn_flat_batch(&WeightedL1::uniform(1), &queries, &store, 2);
    }

    #[test]
    fn knn_flat_respects_weights_and_tie_breaks_by_index() {
        use qse_distance::{FlatVectors, WeightedL1};
        // Two rows at equal weighted distance from the query -> lower index
        // first; a third row is pushed away by the weights.
        let flat = FlatVectors::from_rows(vec![vec![1.0, 0.0], vec![0.0, 0.5], vec![0.0, 10.0]]);
        let d = WeightedL1::new(vec![1.0, 2.0]);
        let result = super::knn_flat(&d, &[0.0, 0.0], &flat, 3);
        assert_eq!(result.neighbors, vec![0, 1, 2]);
        assert_eq!(result.distances, vec![1.0, 1.0, 20.0]);
    }
}
