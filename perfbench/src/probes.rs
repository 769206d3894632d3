//! Inputs and layer probes shared by the workloads: the Gaussian corpus
//! and its model, and the traced calls into the model, distance, kernel
//! and serving layers. Every probe times a call into a crate's public
//! API from here; nothing inside the program is instrumented.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qse_core::{
    BoostMapTrainer, EmbeddedQuery, QseModel, TrainerConfig, TrainingData, TripleSampler,
};
use qse_dataset::{GaussianMixture, GaussianMixtureConfig};
use qse_distance::{CountingDistance, DistanceMeasure, FlatStore};
use qse_retrieval::knn::knn;
use qse_serve::{wire, Batcher, BatcherConfig, QseApi};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

use crate::client::{render, Conn};
use crate::common::{median, Metrics, Tally, Tracer};

/// Neighbors and filter candidates of every query on the Gaussian
/// workloads.
pub const K: usize = 10;
pub const P: usize = 100;

/// Threads handed to the training-data precompute (`nproc` is 2).
pub const THREADS: usize = 2;

/// Seed of every generated corpus and of model training: the corpus and
/// the model are fixed, the workload seed draws the traffic.
pub const CORPUS_SEED: u64 = 0x5EED_CAFE;

/// The Gaussian corpus of `serve-routed` and `churn-concurrent`: 50k rows
/// of dim 32 in 32 clusters.
pub fn gaussian_corpus() -> GaussianMixture {
    GaussianMixture::generate(GaussianMixtureConfig {
        rows: 50_000,
        dim: 32,
        clusters: 32,
        center_box: 10.0,
        spread: 0.5,
        seed: CORPUS_SEED,
    })
}

/// Train the quick query-sensitive model (embedding dim 12) on a pool of
/// the first 80 corpus objects.
pub fn train_model<O: Clone + Send + Sync>(
    objects: &[O],
    distance: &dyn DistanceMeasure<O>,
) -> QseModel<O> {
    let pool: Vec<O> = objects.iter().take(80).cloned().collect();
    let data = TrainingData::precompute(pool.clone(), pool, distance, THREADS);
    let mut rng = StdRng::seed_from_u64(CORPUS_SEED);
    let triples = TripleSampler::selective(4).sample(&data.train_to_train, 600, &mut rng);
    BoostMapTrainer::new(TrainerConfig::quick()).train(&data, &triples, &mut rng)
}

/// The `/query` body for one query vector.
pub fn query_body(query: &[f64]) -> String {
    let coords: Vec<String> = query.iter().map(|x| format!("{x:?}")).collect();
    format!(r#"{{"query":[{}],"k":{K},"p":{P}}}"#, coords.join(","))
}

/// Recall@k of `answers` (neighbor ids per query) against brute-force
/// `knn` over `database`, on both cores.
pub fn recall_at_k<O, D>(
    queries: &[O],
    answers: &[Vec<usize>],
    database: &[O],
    distance: &D,
    k: usize,
) -> f64
where
    O: Sync,
    D: DistanceMeasure<O> + Sync,
{
    let hits: Vec<usize> = (0..queries.len())
        .into_par_iter()
        .map(|i| {
            let truth = knn(&queries[i], database, distance, k);
            answers[i]
                .iter()
                .filter(|id| truth.neighbors.contains(id))
                .count()
        })
        .collect();
    hits.iter().sum::<usize>() as f64 / (queries.len() * k) as f64
}

/// Time spent per exact distance call, over pairs of `objects`.
pub fn exact_us<O>(distance: &dyn DistanceMeasure<O>, objects: &[O], calls: usize) -> f64 {
    let n = objects.len();
    let start = Instant::now();
    let mut acc = 0.0;
    for i in 0..calls {
        acc += distance.distance(&objects[i % n], &objects[(i * 7 + 1) % n]);
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// Traced query embedding: `model.embed_us` and `model.embed_dist`.
pub fn probe_embedding<O, D>(
    tracer: &mut Tracer,
    model: &QseModel<O>,
    queries: &[O],
    distance: &CountingDistance<O, D>,
    metrics: &mut Metrics,
) where
    O: Clone + Send + Sync,
    D: DistanceMeasure<O>,
{
    let mut calls = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let before = distance.count();
        tracer.span(i as u64, "model.embed_query", None, || {
            model.embed_query(q, distance)
        });
        calls.push((distance.count() - before) as f64);
    }
    metrics.set("model.embed_us", tracer.p50_us("model.embed_query"));
    metrics.set("model.embed_dist", median(&calls));
}

/// Filter-scan kernels over the workload's embedded rows (`embedded`, the
/// exact `f64` store): one query against a `u8` and an `f64` store of the
/// same rows (`EmbeddedQuery::score_filter`), and a 64-query tile against
/// the workload's own store (`EmbeddedQueryBatch::score_filter_batch`, on
/// the worker pool). All in ns per scored row.
pub fn probe_kernels<O>(
    tracer: &mut Tracer,
    model: &QseModel<O>,
    embedded: &FlatStore<f64>,
    queries: &[O],
    distance: &dyn DistanceMeasure<O>,
    workload_store_is_u8: bool,
    metrics: &mut Metrics,
) where
    O: Clone + Send + Sync,
{
    let n = embedded.len() as f64;
    let f64_store = embedded;
    let u8_store = FlatStore::<u8>::from_rows(embedded.iter_rows().map(<[f64]>::to_vec).collect());
    let embedded_queries: Vec<EmbeddedQuery> = queries
        .iter()
        .map(|q| model.embed_query(q, distance))
        .collect();
    let mut out = vec![0.0; u8_store.len()];
    for (i, eq) in embedded_queries.iter().enumerate() {
        let r = i as u64;
        tracer.span(r, "kernel.scan_u8", None, || {
            eq.score_filter(&u8_store, &mut out)
        });
        tracer.span(r, "kernel.scan_f64", None, || {
            eq.score_filter(f64_store, &mut out)
        });
    }
    metrics.set(
        "kernel.scan_u8_ns_per_row",
        tracer.p50_us("kernel.scan_u8") * 1e3 / n,
    );
    metrics.set(
        "kernel.scan_f64_ns_per_row",
        tracer.p50_us("kernel.scan_f64") * 1e3 / n,
    );

    let tile: Vec<O> = queries.iter().take(64).cloned().collect();
    let batch = model.embed_queries(&tile, distance);
    let mut out = vec![0.0; u8_store.len() * tile.len()];
    for r in 0..5 {
        tracer.span(r, "kernel.scan_batch", None, || {
            if workload_store_is_u8 {
                batch.score_filter_batch(&u8_store, &mut out)
            } else {
                batch.score_filter_batch(f64_store, &mut out)
            }
        });
    }
    metrics.set(
        "kernel.scan_batch_ns_per_row",
        tracer.p50_us("kernel.scan_batch") * 1e3 / (n * tile.len() as f64),
    );
}

/// The serving path of a workload: an idle server at `addr` over `api`,
/// and the library call under the facade.
pub struct ServingPath<'a> {
    /// The facade the server at `addr` serves.
    pub api: &'a Arc<QseApi>,
    pub addr: SocketAddr,
    pub queries: &'a [Vec<f64>],
    /// Runs the library call the facade wraps; returns the exact
    /// distances that call spent.
    pub retrieve: &'a dyn Fn(&Vec<f64>) -> u64,
    /// Reads the facade's distance counter.
    pub counter: &'a dyn Fn() -> u64,
    /// Probing stops once this is spent (after at least 20 queries).
    pub budget: Duration,
}

impl ServingPath<'_> {
    /// One request, layer by layer, for a lone caller: wire parse, the
    /// library retrieve, `QseApi::try_query`, `Batcher::query` (default
    /// 500 µs window), wire serialize, then the same request over HTTP and
    /// a bodiless `GET /healthz` round trip on one keep-alive connection.
    /// Every span of one query shares its request id under a `probe` root
    /// span.
    pub fn probe(&self, tracer: &mut Tracer, tally: &Tally, metrics: &mut Metrics) {
        let ServingPath {
            api,
            addr,
            queries,
            retrieve,
            counter,
            budget,
        } = *self;
        let batcher = Batcher::start(Arc::clone(api), BatcherConfig::default());
        let mut conn = Conn::open(addr).expect("probe connection");
        let healthz = render("GET", "/healthz", None);
        let mut recomputed = Vec::new();
        let start = Instant::now();
        for (i, q) in queries.iter().enumerate() {
            if i >= 20 && start.elapsed() > budget {
                break;
            }
            let r = i as u64;
            let body = query_body(q);
            let request = render("POST", "/query", Some(&body));
            let root = tracer.push(r, "probe", None, Duration::ZERO, Duration::ZERO);
            let parent = Some(root);
            let parsed = tracer.span(r, "wire.parse", parent, || wire::parse_query_request(&body));
            tally.record(parsed.is_ok_and(|req| req.query == *q));
            let lib_calls = tracer.span(r, "library.retrieve", parent, || retrieve(q));
            let before = counter();
            let result = tracer.span(r, "api.try_query", parent, || api.try_query(q, K, P));
            recomputed.push((counter() - before) as f64 - lib_calls as f64);
            let result = result.expect("probe query is valid");
            let batched = tracer.span(r, "batcher.query", parent, || {
                batcher.query(q.clone(), K, P)
            });
            tally.record(batched.as_ref() == Ok(&result));
            let json = tracer.span(r, "wire.serialize", parent, || wire::result_json(&result));
            let answer = tracer.span(r, "http.query", parent, || conn.send(&request));
            tally.record(
                answer.is_ok_and(|(status, bytes)| status == 200 && bytes == json.as_bytes()),
            );
            let health = tracer.span(r, "http.healthz", parent, || conn.send(&healthz));
            tally.record(health.is_ok_and(|(status, _)| status == 200));
            let (first, last) = (
                tracer.spans[root + 1].start,
                tracer.spans[tracer.spans.len() - 1].end,
            );
            tracer.spans[root].start = first;
            tracer.spans[root].end = last;
        }
        drop(batcher);

        let parse = tracer.p50_us("wire.parse");
        let serialize = tracer.p50_us("wire.serialize");
        let retrieve = tracer.p50_us("library.retrieve");
        let try_query = tracer.p50_us("api.try_query");
        let batcher_query = tracer.p50_us("batcher.query");
        let http_query = tracer.p50_us("http.query");
        let roundtrip = tracer.p50_us("http.healthz");
        metrics.set("wire.parse_us", parse);
        metrics.set("wire.serialize_us", serialize);
        metrics.set("api.try_query_us", try_query);
        metrics.set("api.detour_us", try_query - retrieve);
        metrics.set("api.recomputed_dist", median(&recomputed));
        metrics.set("batcher.query_us", batcher_query);
        metrics.set("batcher.wait_us", batcher_query - try_query);
        metrics.set("http.query_us", http_query);
        metrics.set("http.roundtrip_us", roundtrip);
        metrics.set("http.overhead_us", http_query - batcher_query);
        // The blocking path of one lone request, stage by stage; whatever the
        // stages do not cover is reported, not folded in.
        let stages = parse
            + (batcher_query - try_query)
            + retrieve
            + (try_query - retrieve)
            + serialize
            + roundtrip;
        metrics.set("reconcile.stage_sum_us", stages);
        metrics.set("reconcile.unaccounted_us", http_query - stages);
    }
}
