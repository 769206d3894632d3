//! `retrieve-cdtw`: a library caller retrieving time series under
//! constrained DTW, the paper's own regime, where refine dominates.
//!
//! Corpus: 3000 synthetic 2-D series from `TimeSeriesGenerator` (length
//! ≈ 96), `ConstrainedDtw::paper()`, quick model, flat `f64` store; k = 1,
//! p = 50. Load: `FilterRefineIndex::try_retrieve` in a closed loop on 1
//! thread (`light`) then on 2 threads (`heavy`), then
//! `try_retrieve_batch` in 32-query batches on the 2-thread pool
//! (the saturating phase). No HTTP: the serving layers are bypassed.

use std::time::{Duration, Instant};

use qse_core::QseModel;
use qse_dataset::{TimeSeriesGenerator, TimeSeriesGeneratorConfig};
use qse_distance::{ConstrainedDtw, CountingDistance, TimeSeries};
use qse_retrieval::{FilterRefineIndex, RetrievalOutcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::client::{Closed, Round, Sent, CLOSED_SHARE, HEAVY_SHARE, LIGHT_SHARE, ROUNDS};
use crate::common::{
    median, peak_rss_mb, process_cpu, sub_seed, us, Args, Metrics, SetupTimes, Tally, Tracer,
};
use crate::probes::{
    exact_us, probe_embedding, probe_kernels, recall_at_k, train_model, CORPUS_SEED,
};

const K: usize = 1;
const P: usize = 50;
const CORPUS: usize = 3000;
const POOL: usize = 600;
const BATCH: usize = 32;
const SETUPS: usize = 5;
const RECALL_SAMPLE: usize = 100;

type Counting = CountingDistance<TimeSeries, ConstrainedDtw>;
type Index = FilterRefineIndex<TimeSeries>;

/// Bit-for-bit equality of an answer with its reference.
fn same(a: &RetrievalOutcome, b: &RetrievalOutcome) -> bool {
    a.neighbors == b.neighbors
        && a.distances.len() == b.distances.len()
        && a.distances
            .iter()
            .zip(&b.distances)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Generated inputs to answered query: train, build, answer one query.
fn set_up(
    database: &[TimeSeries],
    first: &TimeSeries,
    counting: &Counting,
) -> (Index, QseModel<TimeSeries>, SetupTimes) {
    let t0 = Instant::now();
    let model = train_model(database, counting.inner());
    let train = t0.elapsed().as_secs_f64();
    let index = FilterRefineIndex::build_query_sensitive(model.clone(), database, counting.inner());
    let build = t0.elapsed().as_secs_f64() - train;
    index
        .try_retrieve(first, database, counting, K, P)
        .expect("first query");
    let times = SetupTimes {
        total: t0.elapsed().as_secs_f64(),
        train,
        build,
        save: 0.0,
    };
    (index, model, times)
}

/// The library caller: the index, what it answers over, the query pool
/// and the reference answer of every pool query.
struct Caller<'a> {
    index: &'a Index,
    database: &'a [TimeSeries],
    queries: &'a [TimeSeries],
    expected: &'a [RetrievalOutcome],
    counting: &'a Counting,
}

impl Caller<'_> {
    /// Closed loop on `threads` threads for `duration`, thread `t` cycling
    /// through queries `t + offset, t + offset + threads, ...`. Returns one
    /// record per query (`done` is its latency).
    fn closed_loop(&self, threads: usize, offset: usize, duration: Duration) -> Vec<Sent> {
        let Caller {
            index,
            database,
            queries,
            expected,
            counting,
        } = *self;
        let start = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        let mut i = t + offset;
                        while start.elapsed() < duration {
                            let q = i % queries.len();
                            let sent = start.elapsed();
                            let answer = index.try_retrieve(&queries[q], database, counting, K, P);
                            let done = start.elapsed();
                            let ok = answer.is_ok_and(|a| same(&a, &expected[q]));
                            out.push(Sent {
                                due: sent,
                                sent,
                                done,
                                ok,
                            });
                            i += threads;
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("closed-loop thread"))
                .collect()
        })
    }
}

pub fn run(args: &Args, tally: &Tally) -> Metrics {
    let origin = Instant::now();
    let seed = args.seed;
    let share = if args.trace { 0.5 } else { 1.0 };
    let round_secs = args.seconds * share / ROUNDS as f64;

    // Inputs: a fixed corpus and recall sample; the query stream from the
    // seed.
    let mut rng = StdRng::seed_from_u64(CORPUS_SEED);
    let generator = TimeSeriesGenerator::new(TimeSeriesGeneratorConfig::default(), &mut rng);
    let database = generator.generate_unlabeled(CORPUS, &mut rng);
    let draw = |count: usize, seed: u64| -> Vec<TimeSeries> {
        let mut rng = StdRng::seed_from_u64(seed);
        let seeds = generator.seeds().len();
        (0..count)
            .map(|_| {
                let s = rng.gen_range(0..seeds);
                generator.variation(s, &mut rng)
            })
            .collect()
    };
    let queries = draw(POOL, sub_seed(seed, 2));
    let recall_queries = draw(RECALL_SAMPLE, CORPUS_SEED + 1);

    let counting = CountingDistance::new(ConstrainedDtw::paper());
    let mut times = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let (index, model, t) = set_up(&database, &queries[0], &counting);
        times.push(t);
        built = Some((index, model));
    }
    let (index, model) = built.expect("at least one set-up");
    // Memory of the served state, before the benchmark's own reference
    // tables and traffic.
    let rss_mb = peak_rss_mb();

    // Reference answers and the recall oracle, before timing.
    let expected = index
        .try_retrieve_batch(&queries, &database, counting.inner(), K, P)
        .expect("reference answers");
    let cdtw = ConstrainedDtw::paper();
    let recall_answers: Vec<Vec<usize>> = index
        .try_retrieve_batch(&recall_queries, &database, &cdtw, K, P)
        .expect("recall sample answers")
        .into_iter()
        .map(|a| a.neighbors)
        .collect();
    let recall = recall_at_k(&recall_queries, &recall_answers, &database, &cdtw, K);

    // Timed rounds: 1 thread, 2 threads, batches on the pool.
    let caller = Caller {
        index: &index,
        database: &database,
        queries: &queries,
        expected: &expected,
        counting: &counting,
    };
    let mut light_calls = 0;
    let mut light_answered = 0;
    let mut rounds = Vec::new();
    let mut batch_us_per_query = Vec::new();
    for r in 0..ROUNDS {
        let offset = r * POOL / ROUNDS;
        let phase = |threads: usize, share: f64| {
            caller.closed_loop(threads, offset, Duration::from_secs_f64(share * round_secs))
        };
        let cpu = process_cpu();
        let before = counting.count();
        let light = phase(1, LIGHT_SHARE);
        light_calls += counting.count() - before;
        light_answered += light.iter().filter(|s| s.ok).count();
        let heavy = phase(2, HEAVY_SHARE);
        let closed = Closed::measure(|| {
            let mut batched = Vec::new();
            let start = Instant::now();
            let mut lo = offset;
            while start.elapsed().as_secs_f64() < CLOSED_SHARE * round_secs {
                let hi = (lo + BATCH).min(POOL);
                let sent = start.elapsed();
                let answers =
                    index.try_retrieve_batch(&queries[lo..hi], &database, &counting, K, P);
                let done = start.elapsed();
                batch_us_per_query.push(us(done - sent) / (hi - lo) as f64);
                for (i, e) in expected[lo..hi].iter().enumerate() {
                    let ok = answers.as_ref().is_ok_and(|a| same(&a[i], e));
                    batched.push(Sent {
                        due: sent,
                        sent,
                        done,
                        ok,
                    });
                }
                lo = if hi == POOL { 0 } else { hi };
            }
            batched
        });
        rounds.push(Round {
            light,
            heavy,
            closed,
            cpu: process_cpu() - cpu,
        });
    }
    for r in rounds.iter().flat_map(Round::records) {
        tally.record(r.ok);
    }

    let mut metrics = Metrics::default();
    SetupTimes::report(&times, args.trace, &mut metrics);
    if !args.trace {
        Round::report(&rounds, &mut metrics);
        metrics.set("recall_at_k", recall);
        metrics.set(
            "dist_per_query",
            light_calls as f64 / light_answered.max(1) as f64,
        );
        metrics.set("rss_mb", rss_mb);
        return metrics;
    }

    let mut tracer = Tracer::new(origin);
    Round::trace(&rounds, &mut tracer, &mut metrics);
    metrics.set(
        "filter_refine.batch_us_per_query",
        median(&batch_us_per_query),
    );

    let sample = &queries[..150];
    for (i, q) in sample.iter().enumerate() {
        let r = i as u64;
        let answer = tracer.span(r, "filter_refine.try_retrieve", None, || {
            index.try_retrieve(q, &database, counting.inner(), K, P)
        });
        tally.record(answer.is_ok_and(|a| same(&a, &expected[i])));
        tracer.span(r, "filter_refine.filter_top_p", None, || {
            index.filter_top_p(q, counting.inner(), P)
        });
    }
    let retrieve = tracer.p50_us("filter_refine.try_retrieve");
    let filter = tracer.p50_us("filter_refine.filter_top_p");
    metrics.set("filter_refine.retrieve_us", retrieve);
    metrics.set("filter_refine.filter_us", filter);
    metrics.set("filter_refine.refine_us", retrieve - filter);

    probe_embedding(&mut tracer, &model, sample, &counting, &mut metrics);
    metrics.set(
        "distance.exact_us",
        exact_us(counting.inner(), &database, 2000),
    );
    let store = index.vectors();
    probe_kernels(
        &mut tracer,
        &model,
        store,
        sample,
        counting.inner(),
        false,
        &mut metrics,
    );
    tracer.dump("retrieve-cdtw");
    metrics
}
