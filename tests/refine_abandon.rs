//! Early-abandoning refine oracle. Constrained DTW stops a refine
//! candidate as soon as it cannot beat the current k-th best
//! (`DistanceMeasure::distance_within`). Every retrieval path — static,
//! routed, dynamic, concurrent and brute-force `knn` — must still answer
//! exactly as a refine that measures every candidate in full: the same
//! neighbors, the same distance bits, and exactly one counted call per
//! candidate. The corpus holds exact duplicates and the queries include
//! database members, so distance ties occur and each path's tie rule is
//! exercised.

use query_sensitive_embeddings::dataset::TimeSeriesGeneratorConfig;
use query_sensitive_embeddings::distance::traits::{FnDistance, MetricProperties};
use query_sensitive_embeddings::prelude::*;
use query_sensitive_embeddings::retrieval::knn::knn;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};

const KS: [usize; 3] = [1, 3, 10];
const P: usize = 24;

type Counting = CountingDistance<TimeSeries, ConstrainedDtw>;

struct Fixture {
    database: Vec<TimeSeries>,
    queries: Vec<TimeSeries>,
    model: QseModel<TimeSeries>,
}

/// Short 2-D series (cheap under the debug-build cDTW), a third of the
/// database duplicated, and queries that are fresh variations, database
/// members, and members that have a duplicate.
fn fixture() -> Fixture {
    let mut rng = StdRng::seed_from_u64(0xAB0);
    let config = TimeSeriesGeneratorConfig {
        base_length: 24,
        seed_patterns: 6,
        ..TimeSeriesGeneratorConfig::default()
    };
    let generator = TimeSeriesGenerator::new(config, &mut rng);
    let mut database = generator.generate_unlabeled(60, &mut rng);
    for i in 0..20 {
        database.push(database[3 * i].clone());
    }
    let mut queries: Vec<TimeSeries> = (0..6).map(|s| generator.variation(s, &mut rng)).collect();
    queries.extend([
        database[0].clone(),
        database[7].clone(),
        database[61].clone(),
    ]);

    let cdtw = ConstrainedDtw::paper();
    let pool: Vec<TimeSeries> = database.iter().take(30).cloned().collect();
    let data = TrainingData::precompute(pool.clone(), pool, &cdtw, 2);
    let triples = TripleSampler::selective(4).sample(&data.train_to_train, 300, &mut rng);
    let model = BoostMapTrainer::new(TrainerConfig::quick()).train(&data, &triples, &mut rng);
    Fixture {
        database,
        queries,
        model,
    }
}

/// The same cDTW behind the default `distance_within`: every candidate is
/// measured in full.
fn full_refine() -> impl DistanceMeasure<TimeSeries> {
    let cdtw = ConstrainedDtw::paper();
    FnDistance::new(
        "cdtw-full",
        MetricProperties::SymmetricNonMetric,
        move |a: &TimeSeries, b: &TimeSeries| cdtw.eval(a, b),
    )
}

fn assert_same(got: &RetrievalOutcome, want: &RetrievalOutcome, what: &str) {
    assert_eq!(got.neighbors, want.neighbors, "{what}: neighbors");
    let bits = |o: &RetrievalOutcome| o.distances.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{what}: distance bits");
    assert_eq!(
        got.embedding_cost, want.embedding_cost,
        "{what}: embedding cost"
    );
    assert_eq!(got.refine_cost, want.refine_cost, "{what}: refine cost");
}

/// Run `retrieve` under the counting cDTW and under the full refine; the
/// answers must be identical and the counter must advance by exactly the
/// embedding cost plus `P`.
fn check(
    what: &str,
    counting: &Counting,
    embedding_cost: usize,
    retrieve: impl Fn(&dyn DistanceMeasure<TimeSeries>) -> RetrievalOutcome,
) {
    let before = counting.count();
    let got = retrieve(counting);
    let calls = (counting.count() - before) as usize;
    assert_eq!(calls, embedding_cost + P, "{what}: counted calls");
    assert_eq!(got.refine_cost, P, "{what}: refine cost");
    assert_eq!(got.total_cost(), calls, "{what}: reported cost");
    assert_same(&got, &retrieve(&full_refine()), what);
}

#[test]
fn static_and_routed_refine_equal_the_full_refine() {
    let Fixture {
        database,
        queries,
        model,
    } = fixture();
    let cdtw = ConstrainedDtw::paper();
    let counting = CountingDistance::new(cdtw);
    let flat = FilterRefineIndex::build_query_sensitive(model.clone(), &database, &cdtw);
    // Every cell is probed, so each query's pool holds all `P` candidates;
    // the routed selection and refine still run per cell.
    let config = RoutedConfig {
        cells: 4,
        n_probe: 4,
        ..RoutedConfig::default()
    };
    let routed = RoutedIndex::build_query_sensitive(model, &database, &cdtw, config);
    let cost = flat.embedding_cost();
    for k in KS {
        for (i, q) in queries.iter().enumerate() {
            check(&format!("static k={k} q={i}"), &counting, cost, |d| {
                flat.try_retrieve(q, &database, d, k, P).expect("static")
            });
            check(&format!("routed k={k} q={i}"), &counting, cost, |d| {
                routed.try_retrieve(q, &database, d, k, P).expect("routed")
            });
        }
        let batched = flat
            .try_retrieve_batch(&queries, &database, &counting, k, P)
            .expect("static batch");
        let routed_batch = routed
            .try_retrieve_batch(&queries, &database, &counting, k, P)
            .expect("routed batch");
        for (i, q) in queries.iter().enumerate() {
            let want = flat
                .try_retrieve(q, &database, &full_refine(), k, P)
                .expect("static");
            assert_same(&batched[i], &want, &format!("static batch k={k} q={i}"));
            assert_same(
                &routed_batch[i],
                &want,
                &format!("routed batch k={k} q={i}"),
            );
        }
    }
}

#[test]
fn dynamic_and_concurrent_refine_equal_the_full_refine() {
    let Fixture {
        database,
        queries,
        model,
    } = fixture();
    let cdtw = ConstrainedDtw::paper();
    let counting = CountingDistance::new(cdtw);
    let cost = model.embedding_cost();
    let (base, tail) = database.split_at(70);
    let mut dynamic = DynamicIndex::new(model.clone(), base.to_vec(), &cdtw);
    let concurrent = ConcurrentIndex::from_dynamic(DynamicIndex::new(model, base.to_vec(), &cdtw));
    // The tail (all duplicates) goes in online, so the concurrent index
    // refines across a sealed segment and a tail segment.
    let mut writer = concurrent.writer();
    for object in tail {
        dynamic.insert(object.clone(), &cdtw);
        writer.insert(object.clone(), &cdtw);
    }
    let snapshot = concurrent.snapshot();
    for k in KS {
        for (i, q) in queries.iter().enumerate() {
            check(&format!("dynamic k={k} q={i}"), &counting, cost, |d| {
                dynamic.try_retrieve_outcome(q, d, k, P).expect("dynamic")
            });
            check(&format!("concurrent k={k} q={i}"), &counting, cost, |d| {
                snapshot
                    .try_retrieve_outcome(q, d, k, P)
                    .expect("concurrent")
            });
        }
        let batched = dynamic
            .try_retrieve_outcome_batch(&queries, &counting, k, P)
            .expect("dynamic batch");
        let concurrent_batch = snapshot
            .try_retrieve_outcome_batch(&queries, &counting, k, P)
            .expect("concurrent batch");
        for (i, q) in queries.iter().enumerate() {
            let want = dynamic
                .try_retrieve_outcome(q, &full_refine(), k, P)
                .expect("dynamic");
            assert_same(&batched[i], &want, &format!("dynamic batch k={k} q={i}"));
            assert_same(
                &concurrent_batch[i],
                &want,
                &format!("concurrent batch k={k} q={i}"),
            );
        }
    }
}

/// cDTW that tallies the `distance_within` calls which stopped early,
/// i.e. returned a lower bound instead of the exact distance.
struct AbandonProbe {
    cdtw: ConstrainedDtw,
    abandoned: AtomicUsize,
}

impl DistanceMeasure<TimeSeries> for AbandonProbe {
    fn distance(&self, a: &TimeSeries, b: &TimeSeries) -> f64 {
        self.cdtw.eval(a, b)
    }
    fn distance_within(&self, a: &TimeSeries, b: &TimeSeries, cutoff: f64) -> f64 {
        let d = self.cdtw.distance_within(a, b, cutoff);
        if d.to_bits() != self.cdtw.eval(a, b).to_bits() {
            self.abandoned.fetch_add(1, Ordering::Relaxed);
        }
        d
    }
}

#[test]
fn the_oracles_above_do_exercise_abandoning() {
    // Without early stops the equalities above would hold trivially.
    let Fixture {
        database,
        queries,
        model,
    } = fixture();
    let cdtw = ConstrainedDtw::paper();
    let flat = FilterRefineIndex::build_query_sensitive(model, &database, &cdtw);
    let probe = AbandonProbe {
        cdtw,
        abandoned: AtomicUsize::new(0),
    };
    for q in &queries {
        flat.try_retrieve(q, &database, &probe, 1, P)
            .expect("static");
    }
    assert!(probe.abandoned.load(Ordering::Relaxed) > 0, "refine");
    probe.abandoned.store(0, Ordering::Relaxed);
    for q in &queries {
        knn(q, &database, &probe, 3);
    }
    assert!(probe.abandoned.load(Ordering::Relaxed) > 0, "knn");
}

#[test]
fn brute_force_knn_equals_exhaustive_evaluation() {
    let Fixture {
        database, queries, ..
    } = fixture();
    let cdtw = ConstrainedDtw::paper();
    let counting = CountingDistance::new(cdtw);
    for k in KS {
        for (i, q) in queries.iter().enumerate() {
            let mut all: Vec<(usize, f64)> = database
                .iter()
                .map(|s| cdtw.eval(q, s))
                .enumerate()
                .collect();
            all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            all.truncate(k);

            let before = counting.count();
            let got = knn(q, &database, &counting, k);
            assert_eq!(
                (counting.count() - before) as usize,
                database.len(),
                "k={k} q={i}: one call per database object"
            );
            let want: Vec<usize> = all.iter().map(|&(j, _)| j).collect();
            assert_eq!(got.neighbors, want, "k={k} q={i}: neighbors");
            let bits: Vec<u64> = all.iter().map(|&(_, d)| d.to_bits()).collect();
            let got_bits: Vec<u64> = got.distances.iter().map(|d| d.to_bits()).collect();
            assert_eq!(got_bits, bits, "k={k} q={i}: distance bits");
        }
    }
}
