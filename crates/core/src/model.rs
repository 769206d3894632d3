//! The trained model: embedding `F_out` plus query-sensitive distance
//! `D_out` (Section 5.4).
//!
//! AdaBoost outputs a strong classifier `H = Σ_j α_j Q̃_{F'_j, V_j}`. The
//! paper re-interprets `H` as:
//!
//! * the embedding `F_out(x) = (F_1(x), ..., F_d(x))` over the *distinct*
//!   1-D embeddings appearing in `H`, and
//! * the query-sensitive distance `D_out(q, x) = Σ_i A_i(q) |q_i − x_i|`
//!   where `A_i(q) = Σ_{j : F'_j = F_i ∧ F'_j(q) ∈ V_j} α_j` (Eq. 10–11).
//!
//! Proposition 1 (`F̃_out = H`) guarantees the classification error AdaBoost
//! minimised is exactly a property of `(F_out, D_out)`; the unit tests here
//! and the property tests at the workspace root verify that identity on
//! random models.

use crate::json::{JsonCodec, JsonError, JsonValue};
use crate::weak::Interval;
use qse_distance::vector::{filter_scan, filter_scan_batch, filter_scan_range};
use qse_distance::{DistanceMeasure, FilterElem, FlatStore, FlatVectors, QueryWeights};
use qse_embedding::one_d::Candidate;
use qse_embedding::{CompositeEmbedding, Embedding, OneDEmbedding};

/// One term `α_j · Q̃_{F'_j, V_j}` of the boosted classifier, expressed
/// against the model's list of distinct coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeakLearner {
    /// Index into [`QseModel::coordinates`] of the 1-D embedding `F'_j`.
    pub coordinate: usize,
    /// The splitter interval `V_j`.
    pub interval: Interval,
    /// The classifier weight `α_j` (already folded with any margin
    /// normalisation the trainer applied, so it multiplies raw coordinate
    /// differences).
    pub alpha: f64,
}

/// A query embedded by a [`QseModel`]: its coordinates under `F_out` and the
/// per-coordinate weights `A_i(q)` of the query-sensitive distance.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddedQuery {
    /// `F_out(q)`.
    pub coordinates: Vec<f64>,
    /// `A_i(q)` for every coordinate.
    pub weights: Vec<f64>,
}

impl EmbeddedQuery {
    /// `D_out(F_out(q), x)` for a database object's embedding `x` (Eq. 11).
    ///
    /// Delegates to the workspace's canonical blocked weighted-L1 routine
    /// (`qse_distance::vector::weighted_l1_row`), so the result is
    /// bit-identical to what [`Self::score_filter`] writes for the same row
    /// of an `f64` store.
    ///
    /// # Panics
    /// Panics if `x` has the wrong dimensionality.
    pub fn distance_to(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.coordinates.len(), "dimensionality mismatch");
        qse_distance::vector::weighted_l1_row(&self.weights, &self.coordinates, x)
    }

    /// The query-sensitive filter scan: `out[i] = D_out(F_out(q), row_i)`
    /// for every row of a flat store (`qse_distance::vector::filter_scan`
    /// under this query's weights `A_i(q)`). On the `f64`/`f32` backends
    /// each score is bit-identical to [`Self::distance_to`] on the
    /// decoded row; `u8` stores are scanned by the in-domain integer SAD
    /// kernel (`qse_distance::sad`), whose scores carry the documented
    /// query-side quantization error that the retrieval pipelines'
    /// exact-distance refine step absorbs.
    ///
    /// # Panics
    /// Panics if the store's dimensionality differs from the query's or
    /// `out.len() != vectors.len()`.
    pub fn score_filter<E: FilterElem>(&self, vectors: &FlatStore<E>, out: &mut [f64]) {
        filter_scan(&self.weights, &self.coordinates, vectors, out)
    }
}

/// A whole batch of queries embedded by a [`QseModel`]: coordinates under
/// `F_out` and the per-query weights `A_i(q)` of the query-sensitive
/// distance, both in flat row-major storage (row `q` belongs to query `q`)
/// so the batched filter step can run the Q×N tiled kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddedQueryBatch {
    /// `F_out(q)` for every query, one row per query.
    pub coordinates: FlatVectors,
    /// `A_i(q)` for every query, aligned row-for-row with `coordinates`.
    pub weights: FlatVectors,
}

impl EmbeddedQueryBatch {
    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.coordinates.len()
    }

    /// `true` if the batch holds no queries.
    pub fn is_empty(&self) -> bool {
        self.coordinates.is_empty()
    }

    /// Embedding dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.coordinates.dim()
    }

    /// The single-query view of query `q` (copies the two rows).
    ///
    /// # Panics
    /// Panics if `q` is out of bounds.
    pub fn query(&self, q: usize) -> EmbeddedQuery {
        EmbeddedQuery {
            coordinates: self.coordinates.row(q).to_vec(),
            weights: self.weights.row(q).to_vec(),
        }
    }

    /// One *sequential* tile of [`Self::score_filter_batch`]: score only
    /// queries `start..end` on the calling thread, writing the row-major
    /// `(end − start) × vectors.len()` tile into `out`
    /// (`qse_distance::vector::filter_scan_range` under per-query
    /// weights). The batched retrieval pipelines hand each worker one
    /// tile-sized range this way, so scores land in a small tile-local
    /// buffer consumed while still cache-hot. Bit-identical to the
    /// corresponding rows of the full batch.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch, an out-of-bounds query range, or
    /// `out.len() != (end - start) * vectors.len()`.
    pub fn score_filter_batch_range<E: FilterElem>(
        &self,
        start: usize,
        end: usize,
        vectors: &FlatStore<E>,
        out: &mut [f64],
    ) {
        let weights = QueryWeights::PerQuery(&self.weights);
        filter_scan_range(weights, &self.coordinates, start, end, vectors, out)
    }

    /// The batched query-sensitive filter scan:
    /// `out[q * vectors.len() + i] = D_out(F_out(q_q), row_i)`, row-major
    /// Q×N, in query tiles on the persistent worker pool
    /// (`qse_distance::vector::filter_scan_batch` under per-query
    /// weights). Scores are bit-identical to calling
    /// [`EmbeddedQuery::score_filter`] query by query at any thread count.
    ///
    /// # Panics
    /// Panics if the store's dimensionality differs from the batch's or
    /// `out.len() != self.len() * vectors.len()`.
    pub fn score_filter_batch<E: FilterElem>(&self, vectors: &FlatStore<E>, out: &mut [f64]) {
        let weights = QueryWeights::PerQuery(&self.weights);
        filter_scan_batch(weights, &self.coordinates, vectors, out)
    }
}

/// Per-round training diagnostics recorded by the trainer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainingHistory {
    /// Weighted training error of the chosen weak classifier at each round.
    pub weak_errors: Vec<f64>,
    /// `Z_j` of the chosen weak classifier at each round.
    pub z_values: Vec<f64>,
    /// Unweighted training-set error of the strong classifier after each
    /// round (fraction of triples misclassified; ties count half).
    pub strong_errors: Vec<f64>,
}

/// A trained query-sensitive (or query-insensitive) embedding model.
#[derive(Debug, Clone, PartialEq)]
pub struct QseModel<O> {
    coordinates: Vec<OneDEmbedding<O>>,
    learners: Vec<WeakLearner>,
    history: TrainingHistory,
}

impl<O: Clone + Send + Sync> QseModel<O> {
    /// Assemble a model from its parts (used by the trainer and by tests).
    ///
    /// # Panics
    /// Panics if there are no learners, no coordinates, or a learner refers
    /// to a coordinate that does not exist.
    pub fn new(
        coordinates: Vec<OneDEmbedding<O>>,
        learners: Vec<WeakLearner>,
        history: TrainingHistory,
    ) -> Self {
        assert!(
            !coordinates.is_empty(),
            "a model needs at least one coordinate"
        );
        assert!(
            !learners.is_empty(),
            "a model needs at least one weak learner"
        );
        assert!(
            learners.iter().all(|l| l.coordinate < coordinates.len()),
            "weak learner refers to a missing coordinate"
        );
        Self {
            coordinates,
            learners,
            history,
        }
    }

    /// Output dimensionality `d` (number of distinct 1-D embeddings).
    pub fn dim(&self) -> usize {
        self.coordinates.len()
    }

    /// Number of boosting rounds `J` (weak learners).
    pub fn rounds(&self) -> usize {
        self.learners.len()
    }

    /// The distinct 1-D embeddings `F_1, ..., F_d`.
    pub fn coordinates(&self) -> &[OneDEmbedding<O>] {
        &self.coordinates
    }

    /// The weak learners `(F'_j, V_j, α_j)`.
    pub fn learners(&self) -> &[WeakLearner] {
        &self.learners
    }

    /// Training diagnostics.
    pub fn history(&self) -> &TrainingHistory {
        &self.history
    }

    /// `true` if any learner uses a bounded splitter, i.e. the distance
    /// measure genuinely depends on the query.
    pub fn is_query_sensitive(&self) -> bool {
        self.learners.iter().any(|l| !l.interval.is_full())
    }

    /// The embedding `F_out` as a [`CompositeEmbedding`].
    pub fn embedding(&self) -> CompositeEmbedding<O> {
        CompositeEmbedding::new(self.coordinates.clone())
    }

    /// Number of exact distance computations needed to embed a query (the
    /// embedding-step part of the paper's per-query budget).
    pub fn embedding_cost(&self) -> usize {
        self.embedding().embedding_cost()
    }

    /// The query-sensitive weights `A_i(q)` for a query whose coordinates
    /// under `F_out` are `query_coordinates` (Eq. 10).
    ///
    /// # Panics
    /// Panics if the coordinate vector has the wrong dimensionality.
    pub fn query_weights(&self, query_coordinates: &[f64]) -> Vec<f64> {
        assert_eq!(
            query_coordinates.len(),
            self.coordinates.len(),
            "dimensionality mismatch"
        );
        let mut weights = vec![0.0; self.coordinates.len()];
        for learner in &self.learners {
            if learner
                .interval
                .accepts(query_coordinates[learner.coordinate])
            {
                weights[learner.coordinate] += learner.alpha;
            }
        }
        weights
    }

    /// Embed a query and compute its query-sensitive weights in one step.
    /// Costs [`Self::embedding_cost`] exact distance computations.
    pub fn embed_query(&self, query: &O, distance: &dyn DistanceMeasure<O>) -> EmbeddedQuery {
        let coordinates = self.embedding().embed(query, distance);
        let weights = self.query_weights(&coordinates);
        EmbeddedQuery {
            coordinates,
            weights,
        }
    }

    /// Embed a whole query batch into flat row-major storage — coordinates
    /// and per-query weights — ready for the Q×N tiled filter kernel.
    ///
    /// The embedding step (the exact-distance part, `queries.len() ×`
    /// [`Self::embedding_cost`] computations in total) fans out across rayon
    /// worker threads; the weight rows are then derived per query with
    /// [`Self::query_weights`]. Row `q` of the result is bit-identical to
    /// [`Self::embed_query`] on `queries[q]`, at any thread count.
    pub fn embed_queries(
        &self,
        queries: &[O],
        distance: &dyn DistanceMeasure<O>,
    ) -> EmbeddedQueryBatch {
        let coordinates = self.embedding().embed_queries(queries, distance);
        let mut weights = FlatVectors::with_dim(self.dim());
        for q in 0..coordinates.len() {
            weights.push(&self.query_weights(coordinates.row(q)));
        }
        EmbeddedQueryBatch {
            coordinates,
            weights,
        }
    }

    /// The boosted classifier `H(q, a, b)` evaluated on already-embedded
    /// coordinate vectors (Eq. 9). Positive means "q is closer to a".
    pub fn classify_embedded(&self, q: &[f64], a: &[f64], b: &[f64]) -> f64 {
        self.learners
            .iter()
            .map(|l| {
                let i = l.coordinate;
                if l.interval.accepts(q[i]) {
                    l.alpha * ((q[i] - b[i]).abs() - (q[i] - a[i]).abs())
                } else {
                    0.0
                }
            })
            .sum()
    }

    /// `D_out(F_out(q), F_out(b)) − D_out(F_out(q), F_out(a))`, i.e. the
    /// classifier `F̃_out` induced by the embedding and the query-sensitive
    /// distance (Eq. 3 with `D = D_out`). Proposition 1 states this equals
    /// [`Self::classify_embedded`]; the equality is exercised by tests.
    pub fn classifier_from_distance(&self, q: &[f64], a: &[f64], b: &[f64]) -> f64 {
        let eq = EmbeddedQuery {
            coordinates: q.to_vec(),
            weights: self.query_weights(q),
        };
        eq.distance_to(b) - eq.distance_to(a)
    }

    /// The model truncated to its first `rounds` weak learners, with unused
    /// coordinates dropped. Because boosting is sequential this is exactly
    /// the model that training would have produced had it stopped early,
    /// which is how the evaluation sweeps embedding dimensionality without
    /// retraining (Section 9).
    ///
    /// # Panics
    /// Panics if `rounds` is zero or exceeds the trained number of rounds.
    pub fn prefix(&self, rounds: usize) -> Self {
        assert!(
            rounds >= 1 && rounds <= self.learners.len(),
            "invalid prefix of {rounds} rounds for a model with {} rounds",
            self.learners.len()
        );
        let kept = &self.learners[..rounds];
        // Re-index the coordinates that survive.
        let mut remap = vec![usize::MAX; self.coordinates.len()];
        let mut coordinates = Vec::new();
        let mut learners = Vec::with_capacity(rounds);
        for l in kept {
            if remap[l.coordinate] == usize::MAX {
                remap[l.coordinate] = coordinates.len();
                coordinates.push(self.coordinates[l.coordinate].clone());
            }
            learners.push(WeakLearner {
                coordinate: remap[l.coordinate],
                ..*l
            });
        }
        let history = TrainingHistory {
            weak_errors: self
                .history
                .weak_errors
                .iter()
                .copied()
                .take(rounds)
                .collect(),
            z_values: self.history.z_values.iter().copied().take(rounds).collect(),
            strong_errors: self
                .history
                .strong_errors
                .iter()
                .copied()
                .take(rounds)
                .collect(),
        };
        Self {
            coordinates,
            learners,
            history,
        }
    }

    /// Serialize the model to a JSON string (for persistence of trained
    /// models between the training and evaluation phases of the benchmarks).
    /// Non-finite interval bounds are written as the extended literals
    /// `inf` / `-inf` (see [`crate::json`]).
    pub fn to_json(&self) -> String
    where
        O: JsonCodec,
    {
        self.to_json_value().dump()
    }

    /// Deserialize a model previously produced by [`Self::to_json`].
    pub fn from_json(json: &str) -> Result<Self, JsonError>
    where
        O: JsonCodec,
    {
        Self::from_json_value(&JsonValue::parse(json)?)
    }
}

impl JsonCodec for Interval {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("lo".into(), JsonValue::Number(self.lo)),
            ("hi".into(), JsonValue::Number(self.hi)),
        ])
    }
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        let lo = value.get("lo")?.as_f64()?;
        let hi = value.get("hi")?.as_f64()?;
        if lo.is_nan() || hi.is_nan() || lo > hi {
            return Err(JsonError::new(format!("invalid interval [{lo}, {hi}]")));
        }
        Ok(Interval { lo, hi })
    }
}

impl JsonCodec for WeakLearner {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("coordinate".into(), self.coordinate.to_json_value()),
            ("interval".into(), self.interval.to_json_value()),
            ("alpha".into(), JsonValue::Number(self.alpha)),
        ])
    }
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(WeakLearner {
            coordinate: usize::from_json_value(value.get("coordinate")?)?,
            interval: Interval::from_json_value(value.get("interval")?)?,
            alpha: value.get("alpha")?.as_f64()?,
        })
    }
}

impl JsonCodec for TrainingHistory {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("weak_errors".into(), self.weak_errors.to_json_value()),
            ("z_values".into(), self.z_values.to_json_value()),
            ("strong_errors".into(), self.strong_errors.to_json_value()),
        ])
    }
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(TrainingHistory {
            weak_errors: Vec::from_json_value(value.get("weak_errors")?)?,
            z_values: Vec::from_json_value(value.get("z_values")?)?,
            strong_errors: Vec::from_json_value(value.get("strong_errors")?)?,
        })
    }
}

impl<O: JsonCodec> JsonCodec for Candidate<O> {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("id".into(), self.id.to_json_value()),
            ("object".into(), self.object.to_json_value()),
        ])
    }
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(Candidate::new(
            usize::from_json_value(value.get("id")?)?,
            O::from_json_value(value.get("object")?)?,
        ))
    }
}

impl<O: JsonCodec> JsonCodec for OneDEmbedding<O> {
    fn to_json_value(&self) -> JsonValue {
        match self {
            OneDEmbedding::Reference { reference } => JsonValue::Object(vec![
                ("type".into(), JsonValue::String("reference".into())),
                ("reference".into(), reference.to_json_value()),
            ]),
            OneDEmbedding::Pivot { x1, x2, d12 } => JsonValue::Object(vec![
                ("type".into(), JsonValue::String("pivot".into())),
                ("x1".into(), x1.to_json_value()),
                ("x2".into(), x2.to_json_value()),
                ("d12".into(), JsonValue::Number(*d12)),
            ]),
        }
    }
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        match value.get("type")?.as_str()? {
            "reference" => Ok(OneDEmbedding::Reference {
                reference: Candidate::from_json_value(value.get("reference")?)?,
            }),
            "pivot" => Ok(OneDEmbedding::Pivot {
                x1: Candidate::from_json_value(value.get("x1")?)?,
                x2: Candidate::from_json_value(value.get("x2")?)?,
                d12: value.get("d12")?.as_f64()?,
            }),
            other => Err(JsonError::new(format!(
                "unknown 1-D embedding type `{other}`"
            ))),
        }
    }
}

impl<O: JsonCodec + Clone + Send + Sync> JsonCodec for QseModel<O> {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("coordinates".into(), self.coordinates.to_json_value()),
            ("learners".into(), self.learners.to_json_value()),
            ("history".into(), self.history.to_json_value()),
        ])
    }
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        let coordinates = Vec::from_json_value(value.get("coordinates")?)?;
        let learners: Vec<WeakLearner> = Vec::from_json_value(value.get("learners")?)?;
        let history = TrainingHistory::from_json_value(value.get("history")?)?;
        if coordinates.is_empty() || learners.is_empty() {
            return Err(JsonError::new(
                "a model needs at least one coordinate and learner",
            ));
        }
        if learners.iter().any(|l| l.coordinate >= coordinates.len()) {
            return Err(JsonError::new(
                "weak learner refers to a missing coordinate",
            ));
        }
        Ok(QseModel {
            coordinates,
            learners,
            history,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_distance::traits::{FnDistance, MetricProperties};
    use qse_embedding::one_d::Candidate;

    fn abs() -> FnDistance<impl Fn(&f64, &f64) -> f64 + Send + Sync> {
        FnDistance::new("abs", MetricProperties::Metric, |a: &f64, b: &f64| {
            (a - b).abs()
        })
    }

    /// A small hand-built model over the real line with two reference
    /// coordinates (r=0 and r=10) and three learners.
    fn example_model() -> QseModel<f64> {
        let coordinates = vec![
            OneDEmbedding::reference(Candidate::new(0, 0.0)),
            OneDEmbedding::reference(Candidate::new(1, 10.0)),
        ];
        let learners = vec![
            // Trust coordinate 0 only for queries within distance 3 of r=0.
            WeakLearner {
                coordinate: 0,
                interval: Interval::new(0.0, 3.0),
                alpha: 2.0,
            },
            // Trust coordinate 1 only for queries within distance 3 of r=10.
            WeakLearner {
                coordinate: 1,
                interval: Interval::new(0.0, 3.0),
                alpha: 1.5,
            },
            // A query-insensitive learner on coordinate 0.
            WeakLearner {
                coordinate: 0,
                interval: Interval::full(),
                alpha: 0.5,
            },
        ];
        QseModel::new(coordinates, learners, TrainingHistory::default())
    }

    #[test]
    fn dimensions_and_flags() {
        let m = example_model();
        assert_eq!(m.dim(), 2);
        assert_eq!(m.rounds(), 3);
        assert!(m.is_query_sensitive());
        assert_eq!(m.embedding_cost(), 2);
    }

    #[test]
    fn query_weights_follow_the_splitters() {
        let m = example_model();
        // Query at 1.0: F = (1, 9). Coordinate 0 accepted by both learners on
        // coordinate 0 → weight 2.5; coordinate 1's splitter rejects 9 → 0.
        let w = m.query_weights(&[1.0, 9.0]);
        assert_eq!(w, vec![2.5, 0.0]);
        // Query at 9.0: F = (9, 1). Only the query-insensitive learner fires
        // on coordinate 0, and the coordinate-1 learner fires.
        let w = m.query_weights(&[9.0, 1.0]);
        assert_eq!(w, vec![0.5, 1.5]);
    }

    #[test]
    fn embed_query_combines_embedding_and_weights() {
        let m = example_model();
        let d = abs();
        let eq = m.embed_query(&1.0, &d);
        assert_eq!(eq.coordinates, vec![1.0, 9.0]);
        assert_eq!(eq.weights, vec![2.5, 0.0]);
        // D_out to the embedding of database object 2.0 → (2, 8).
        let dist = eq.distance_to(&[2.0, 8.0]);
        assert!((dist - 2.5 * 1.0).abs() < 1e-12);
    }

    #[test]
    fn embed_queries_matches_embed_query_row_for_row() {
        let m = example_model();
        let d = abs();
        let queries = [1.0, 9.0, 5.0, -3.0, 12.5];
        let batch = m.embed_queries(&queries, &d);
        assert_eq!(batch.len(), queries.len());
        assert_eq!(batch.dim(), m.dim());
        for (q, query) in queries.iter().enumerate() {
            let single = m.embed_query(query, &d);
            assert_eq!(batch.query(q), single, "query {q}");
        }
    }

    #[test]
    fn score_flat_batch_matches_per_query_score_flat() {
        let m = example_model();
        let d = abs();
        let queries = [0.5, 4.0, 9.5];
        let store = FlatVectors::from_rows(vec![vec![2.0, 8.0], vec![7.0, 3.0], vec![0.0, 10.0]]);
        let batch = m.embed_queries(&queries, &d);
        let mut scores = vec![f64::NAN; queries.len() * store.len()];
        batch.score_filter_batch(&store, &mut scores);
        let mut single = vec![f64::NAN; store.len()];
        for (q, query) in queries.iter().enumerate() {
            m.embed_query(query, &d).score_filter(&store, &mut single);
            for (i, score) in single.iter().enumerate() {
                assert_eq!(
                    scores[q * store.len() + i].to_bits(),
                    score.to_bits(),
                    "query {q}, row {i}"
                );
            }
        }
    }

    #[test]
    fn embed_queries_on_empty_batch_keeps_the_model_dimensionality() {
        let m = example_model();
        let batch = m.embed_queries(&[], &abs());
        assert!(batch.is_empty());
        assert_eq!(batch.dim(), m.dim());
        assert_eq!(batch.weights.dim(), m.dim());
    }

    #[test]
    fn proposition_1_holds_on_the_example_model() {
        let m = example_model();
        let d = abs();
        let emb = m.embedding();
        for q in [0.5, 2.0, 5.0, 9.5, 12.0] {
            for a in [1.0, 4.0, 8.0] {
                for b in [0.0, 6.0, 11.0] {
                    let fq = emb.embed(&q, &d);
                    let fa = emb.embed(&a, &d);
                    let fb = emb.embed(&b, &d);
                    let h = m.classify_embedded(&fq, &fa, &fb);
                    let via_distance = m.classifier_from_distance(&fq, &fa, &fb);
                    assert!(
                        (h - via_distance).abs() < 1e-12,
                        "Proposition 1 violated at q={q}, a={a}, b={b}: {h} vs {via_distance}"
                    );
                }
            }
        }
    }

    #[test]
    fn prefix_drops_unused_coordinates_and_keeps_behaviour() {
        let m = example_model();
        let p = m.prefix(1);
        assert_eq!(p.rounds(), 1);
        assert_eq!(p.dim(), 1);
        // The prefix uses only coordinate 0 (reference 0.0); its weights for
        // a query at 1.0 must match the original learner's alpha.
        let w = p.query_weights(&[1.0]);
        assert_eq!(w, vec![2.0]);
    }

    #[test]
    fn json_roundtrip_preserves_the_model() {
        let m = example_model();
        let json = m.to_json();
        let back: QseModel<f64> = QseModel::from_json(&json).expect("deserialize");
        assert_eq!(m, back);
    }

    #[test]
    fn query_insensitive_model_has_constant_weights() {
        let coordinates = vec![OneDEmbedding::reference(Candidate::new(0, 0.0))];
        let learners = vec![WeakLearner {
            coordinate: 0,
            interval: Interval::full(),
            alpha: 1.25,
        }];
        let m = QseModel::new(coordinates, learners, TrainingHistory::default());
        assert!(!m.is_query_sensitive());
        assert_eq!(m.query_weights(&[0.0]), m.query_weights(&[100.0]));
    }

    #[test]
    #[should_panic(expected = "missing coordinate")]
    fn rejects_dangling_learner() {
        let coordinates = vec![OneDEmbedding::reference(Candidate::new(0, 0.0_f64))];
        let learners = vec![WeakLearner {
            coordinate: 3,
            interval: Interval::full(),
            alpha: 1.0,
        }];
        let _ = QseModel::new(coordinates, learners, TrainingHistory::default());
    }

    #[test]
    #[should_panic(expected = "invalid prefix")]
    fn rejects_zero_round_prefix() {
        let _ = example_model().prefix(0);
    }
}
