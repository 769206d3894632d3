//! `serve-routed`: HTTP `POST /query` against a routed `u8` index booted
//! from an mmap'd snapshot, the way a deployment runs it.
//!
//! Corpus: 50k Gaussian rows, dim 32, L2; quick model (embedding dim 12);
//! 32 cells, `n_probe` 6; k = 10, p = 100; `ServeConfig::default()`.
//! Load: open loop on 2 connections at 400 req/s (`light`) then 500 req/s
//! (`heavy`), then closed loop on 2 connections. Every third
//! request repeats one of the four requests before it.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qse_distance::{CountingDistance, LpDistance};
use qse_retrieval::{FilterRefineIndex, RoutedConfig, RoutedIndex};
use qse_serve::{wire, LoadOptions, QseApi, QseServer, QueryResult, ServeConfig, SnapshotSource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::client::{
    closed_loop, open_loop, poisson_schedule, render, Conn, Job, Round, Sent, CLOSED_SHARE,
    HEAVY_SHARE, LIGHT_SHARE, ROUNDS,
};
use crate::common::{
    median, peak_rss_mb, process_cpu, quantile, sub_seed, work_dir, Args, Metrics, SetupTimes,
    Tally, Tracer,
};
use crate::probes::{
    exact_us, gaussian_corpus, probe_embedding, probe_kernels, query_body, recall_at_k,
    train_model, ServingPath, CORPUS_SEED, K, P,
};

const LIGHT_RATE: f64 = 400.0;
/// 500, not the 800 a quiet host sustains: the 2 client connections
/// saturate near 1.3k req/s, and the host's speed swings by up to 1.8x
/// over minutes. At 800 a slowdown of a fifth pushed the heavy phase into
/// an unbounded queue, and at 600 a slow stretch still tripled its p50.
const HEAVY_RATE: f64 = 500.0;
const CONNS: usize = 2;
const SETUPS: usize = 9;
const RECALL_SAMPLE: usize = 200;

type Counting = CountingDistance<Vec<f64>, LpDistance>;

/// Generated inputs to answered request: train, build the routed index,
/// save its snapshot, boot the facade from the mmap'd file, start the
/// server and get the first answer.
fn set_up(
    points: &[Vec<f64>],
    first: &[u8],
    path: &PathBuf,
    counting: &Counting,
) -> (QseServer, qse_core::QseModel<Vec<f64>>, SetupTimes) {
    let l2 = LpDistance::l2();
    let t0 = Instant::now();
    let model = train_model(points, &l2);
    let train = t0.elapsed().as_secs_f64();
    let index = RoutedIndex::<_, u8>::build_query_sensitive_with_store(
        model.clone(),
        points,
        &l2,
        RoutedConfig {
            cells: 32,
            n_probe: 6,
            ..RoutedConfig::default()
        },
    );
    let build = t0.elapsed().as_secs_f64() - train;
    index.save(path).expect("snapshot save");
    let save = t0.elapsed().as_secs_f64() - train - build;
    drop(index);
    let options = LoadOptions::new(Box::new(counting.clone())).with_database(points.to_vec());
    let api = QseApi::load(SnapshotSource::Mmap(path), options).expect("snapshot load");
    let server = QseServer::start(api, ServeConfig::default()).expect("server start");
    let (status, _) = Conn::open(server.addr())
        .and_then(|mut c| c.send(first))
        .expect("first request");
    assert_eq!(status, 200, "first request refused");
    let total = t0.elapsed().as_secs_f64();
    (
        server,
        model,
        SetupTimes {
            total,
            train,
            build,
            save,
        },
    )
}

/// Request `i` of a stream: a fresh query, or (every third request) a
/// repeat of one of the four requests before it.
fn request_stream(len: usize, next_unique: &mut usize, rng: &mut StdRng) -> Vec<usize> {
    let mut stream: Vec<usize> = Vec::with_capacity(len);
    for i in 0..len {
        if i % 3 == 2 {
            let back = 1 + rng.gen_range(0..4usize.min(i));
            stream.push(stream[i - back]);
        } else {
            stream.push(*next_unique);
            *next_unique += 1;
        }
    }
    stream
}

/// In-process reference answers, computed on both cores before timing.
fn reference_answers(api: &QseApi, queries: &[Vec<f64>]) -> Vec<QueryResult> {
    let half = queries.len().div_ceil(2);
    std::thread::scope(|scope| {
        let parts: Vec<_> = queries
            .chunks(half.max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|q| api.try_query(q, K, P).expect("reference query"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    })
}

pub fn run(args: &Args, tally: &Tally) -> Metrics {
    let origin = Instant::now();
    let seed = args.seed;
    let share = if args.trace { 0.5 } else { 1.0 };
    let round_secs = args.seconds * share / ROUNDS as f64;

    // Inputs: a fixed corpus and recall sample; the traffic from the seed.
    let corpus = gaussian_corpus();
    let points = corpus.points.clone();
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 4));
    let mut unique = 0;
    let light_n = (LIGHT_RATE * LIGHT_SHARE * round_secs).ceil() as usize;
    let heavy_n = (HEAVY_RATE * HEAVY_SHARE * round_secs).ceil() as usize;
    let streams: Vec<(Vec<usize>, Vec<usize>)> = (0..ROUNDS)
        .map(|_| {
            let light = request_stream(light_n, &mut unique, &mut rng);
            (light, request_stream(heavy_n, &mut unique, &mut rng))
        })
        .collect();
    let schedules: Vec<(Vec<Duration>, Vec<Duration>)> = (0..ROUNDS as u64)
        .map(|r| {
            (
                poisson_schedule(LIGHT_RATE, light_n, sub_seed(seed, 100 + r)),
                poisson_schedule(HEAVY_RATE, heavy_n, sub_seed(seed, 200 + r)),
            )
        })
        .collect();
    let queries = corpus.queries(unique, sub_seed(seed, 2));
    let recall_queries = corpus.queries(RECALL_SAMPLE, CORPUS_SEED + 1);
    let requests: Vec<Vec<u8>> = queries
        .iter()
        .map(|q| render("POST", "/query", Some(&query_body(q))))
        .collect();

    // Set up several times; serve from the last one.
    let counting = CountingDistance::new(LpDistance::l2());
    let paths: Vec<PathBuf> = (0..SETUPS)
        .map(|i| work_dir().join(format!("serve-routed-{}-{i}.qse", std::process::id())))
        .collect();
    let mut times = Vec::new();
    let mut served = None;
    for path in &paths {
        // Unmap the previous set-up's snapshot before building the next.
        drop(served.take());
        let (server, model, t) = set_up(&points, &requests[0], path, &counting);
        times.push(t);
        served = Some((server, model));
    }
    let (server, model) = served.expect("at least one set-up");
    // Memory of the served state, before the benchmark's own reference
    // tables and traffic.
    let rss_mb = peak_rss_mb();
    let addr = server.addr();
    let api = Arc::clone(server.api());

    // Reference answers and the recall oracle, before timing.
    let reference = reference_answers(&api, &queries);
    let expected: Vec<String> = reference.iter().map(wire::result_json).collect();
    let recall_answers: Vec<Vec<usize>> = reference_answers(&api, &recall_queries)
        .into_iter()
        .map(|r| r.neighbors)
        .collect();
    let recall = recall_at_k(
        &recall_queries,
        &recall_answers,
        &points,
        &LpDistance::l2(),
        K,
    );
    let jobs = |stream: &[usize]| -> Vec<Job<'_>> {
        stream
            .iter()
            .map(|&u| Job {
                request: &requests[u],
                expected: expected[u].as_bytes(),
                alternative: expected[u].as_bytes(),
            })
            .collect()
    };
    let closed_jobs: Vec<Job<'_>> = streams
        .iter()
        .flat_map(|(light, heavy)| jobs(light).into_iter().chain(jobs(heavy)))
        .collect();

    // Timed rounds: light, heavy, closed loop.
    let calls_before = counting.count();
    let mut rounds = Vec::new();
    let mut heavy_stats = (0, 0, 0);
    for ((light_stream, heavy_stream), (light_schedule, heavy_schedule)) in
        streams.iter().zip(&schedules)
    {
        let cpu = process_cpu();
        let light = open_loop(addr, CONNS, light_schedule, &jobs(light_stream));
        let before = server.batcher_stats();
        let heavy = open_loop(addr, CONNS, heavy_schedule, &jobs(heavy_stream));
        let after = server.batcher_stats();
        heavy_stats.0 += after.batches - before.batches;
        heavy_stats.1 += after.queries - before.queries;
        heavy_stats.2 += after.deduped - before.deduped;
        let closed = closed_loop(
            addr,
            CONNS,
            Duration::from_secs_f64(CLOSED_SHARE * round_secs),
            &closed_jobs,
        );
        rounds.push(Round {
            light,
            heavy,
            closed,
            cpu: process_cpu() - cpu,
        });
    }
    let calls = counting.count() - calls_before;
    let all: Vec<&Sent> = rounds.iter().flat_map(Round::records).collect();
    for r in &all {
        tally.record(r.ok);
    }
    let answered = all.iter().filter(|r| r.ok).count().max(1);

    let mut metrics = Metrics::default();
    SetupTimes::report(&times, args.trace, &mut metrics);
    if !args.trace {
        Round::report(&rounds, &mut metrics);
        metrics.set("recall_at_k", recall);
        metrics.set("dist_per_query", calls as f64 / answered as f64);
        metrics.set("rss_mb", rss_mb);
    } else {
        let mut tracer = Tracer::new(origin);
        Round::trace(&rounds, &mut tracer, &mut metrics);
        let (batches, admitted, deduped) = heavy_stats;
        metrics.set(
            "batcher.mean_batch",
            admitted as f64 / batches.max(1) as f64,
        );
        metrics.set(
            "batcher.dedupe_ratio",
            deduped as f64 / admitted.max(1) as f64,
        );
        trace_layers(
            &mut tracer,
            &mut metrics,
            &Layers {
                api: &api,
                counting: &counting,
                addr,
                model: &model,
                points: &points,
                queries: &queries,
                path: &paths[SETUPS - 1],
                budget: Duration::from_secs_f64(0.3 * args.seconds),
            },
            tally,
        );
        tracer.dump("serve-routed");
    }
    drop(server);
    for path in &paths {
        let _ = std::fs::remove_file(path);
    }
    metrics
}

struct Layers<'a> {
    api: &'a Arc<QseApi>,
    counting: &'a Counting,
    addr: std::net::SocketAddr,
    model: &'a qse_core::QseModel<Vec<f64>>,
    points: &'a [Vec<f64>],
    queries: &'a [Vec<f64>],
    path: &'a PathBuf,
    budget: Duration,
}

fn trace_layers(tracer: &mut Tracer, metrics: &mut Metrics, l: &Layers<'_>, tally: &Tally) {
    let l2 = LpDistance::l2();
    let lib_counting = CountingDistance::new(LpDistance::l2());

    // Snapshot layer: the library index the probes below use is the last
    // of three mmap loads.
    let mut index = None;
    for r in 0..3 {
        index = Some(tracer.span(r, "snapshot.load_mmap", None, || {
            RoutedIndex::<Vec<f64>, u8>::load_mmap(l.path).expect("load_mmap")
        }));
        tracer.span(r, "snapshot.load_owned", None, || {
            RoutedIndex::<Vec<f64>, u8>::load(l.path).expect("load")
        });
    }
    let index = index.expect("loaded");
    metrics.set(
        "snapshot.load_mmap_ms",
        tracer.p50_us("snapshot.load_mmap") / 1e3,
    );
    metrics.set(
        "snapshot.load_owned_ms",
        tracer.p50_us("snapshot.load_owned") / 1e3,
    );

    // Serving path, lone caller.
    let retrieve = |q: &Vec<f64>| {
        let before = lib_counting.count();
        let outcome = index
            .try_retrieve(q, l.points, &lib_counting, K, P)
            .expect("library retrieve");
        std::hint::black_box(outcome);
        lib_counting.count() - before
    };
    let counter = || l.counting.count();
    let path = ServingPath {
        api: l.api,
        addr: l.addr,
        queries: l.queries,
        retrieve: &retrieve,
        counter: &counter,
        budget: l.budget,
    };
    path.probe(tracer, tally, metrics);
    let retrieve_us = tracer.durations_us("library.retrieve");
    metrics.set("routed.retrieve_us", median(&retrieve_us));
    metrics.set("routed.retrieve_p99_us", quantile(&retrieve_us, 0.99));

    // Routing: embed + rank cells, minus the embedding alone.
    let sample = &l.queries[..l.queries.len().min(200)];
    let sizes = index.cell_sizes();
    let mut rows = Vec::new();
    for (i, q) in sample.iter().enumerate() {
        let cells = tracer.span(i as u64, "routed.probe_cells", None, || {
            index.probe_cells(q, &l2)
        });
        rows.push(cells.iter().map(|&c| sizes[c]).sum::<usize>() as f64);
    }
    probe_embedding(tracer, l.model, sample, &lib_counting, metrics);
    metrics.set(
        "routed.route_us",
        tracer.p50_us("routed.probe_cells") - tracer.p50_us("model.embed_query"),
    );
    metrics.set("routed.rows_scanned", median(&rows));

    // Batched routed retrieval: 64-query batches on the worker pool.
    let batch: Vec<Vec<f64>> = l.queries.iter().take(64).cloned().collect();
    for r in 0..5 {
        let answers = tracer.span(r, "routed.retrieve_batch", None, || {
            index.try_retrieve_batch(&batch, l.points, &l2, K, P)
        });
        tally.record(answers.is_ok());
    }
    metrics.set(
        "routed.batch_us_per_query",
        tracer.p50_us("routed.retrieve_batch") / batch.len() as f64,
    );

    // Distance and kernel layers.
    metrics.set("distance.exact_us", exact_us(&l2, l.points, 200_000));
    let flat = FilterRefineIndex::<Vec<f64>, f64>::build_query_sensitive_with_store(
        l.model.clone(),
        l.points,
        &l2,
    );
    probe_kernels(tracer, l.model, flat.vectors(), sample, &l2, true, metrics);
}
