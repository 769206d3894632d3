//! `churn-concurrent`: HTTP reads beside live writes on a flat `u8`
//! `ConcurrentIndex` (no routing, so every read scans all 50k rows).
//!
//! Corpus and model as `serve-routed`. Load, on a fresh server per
//! round: one connection sends unique reads open loop, the other sends
//! `/insert` + `/remove` pairs open loop that put one far-away object in
//! and take it out again, so `len` stays constant and the real objects
//! keep their ids. `light` is 80 reads/s beside 40 pairs/s, `heavy`
//! doubles both; the saturating phase is closed-loop reads on 2
//! connections with the writer idle.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qse_core::QseModel;
use qse_distance::{CountingDistance, LpDistance};
use qse_retrieval::{ConcurrentIndex, DynamicIndex};
use qse_serve::{wire, BatcherStats, MutationReport, QseApi, QseServer, QueryResult, ServeConfig};

use crate::client::{
    closed_loop, open_loop, poisson_schedule, render, Conn, Job, Round, Sent, CLOSED_SHARE,
    HEAVY_SHARE, LIGHT_SHARE, ROUNDS,
};
use crate::common::{
    ms, peak_rss_mb, process_cpu, quantile, sub_seed, Args, Metrics, SetupTimes, Tally, Tracer,
};
use crate::probes::{
    exact_us, gaussian_corpus, probe_embedding, probe_kernels, query_body, recall_at_k,
    train_model, ServingPath, CORPUS_SEED, K, P,
};

const LIGHT_READS: f64 = 80.0;
const LIGHT_PAIRS: f64 = 40.0;
/// More set-ups than the other workloads: one takes about 0.25 s, short
/// enough that host noise moves a median of 5 by a fifth.
const SETUPS: usize = 9;
const RECALL_SAMPLE: usize = 200;

type Counting = CountingDistance<Vec<f64>, LpDistance>;
type Index = ConcurrentIndex<Vec<f64>, u8>;

/// A fresh concurrent index over the corpus: epoch 0, no garbage.
fn fresh_index(model: &QseModel<Vec<f64>>, points: &[Vec<f64>]) -> Index {
    ConcurrentIndex::from_dynamic(DynamicIndex::<_, u8>::with_store(
        model.clone(),
        points.to_vec(),
        &LpDistance::l2(),
    ))
}

/// A fresh concurrent index served over HTTP. Returns the server and a
/// handle on the served index.
fn serve(
    model: &QseModel<Vec<f64>>,
    points: &[Vec<f64>],
    counting: &Counting,
) -> (QseServer, Index) {
    let index = fresh_index(model, points);
    let api = QseApi::from_concurrent(index.clone(), Box::new(counting.clone()))
        .expect("concurrent facade");
    let server = QseServer::start(api, ServeConfig::default()).expect("server start");
    (server, index)
}

/// The object every insert adds: far from every cluster, so it never
/// enters a real query's answer.
fn far_object(dim: usize) -> Vec<f64> {
    (0..dim).map(|c| 40.5 + c as f64).collect()
}

/// Reference answers for `queries` from a fresh facade, in 64-query
/// batches (bit-identical to `try_query` per query): without and with the
/// far object present.
fn reference_answers(
    model: &QseModel<Vec<f64>>,
    points: &[Vec<f64>],
    queries: &[Vec<f64>],
) -> (Vec<QueryResult>, Vec<QueryResult>) {
    let api = QseApi::from_concurrent(fresh_index(model, points), Box::new(LpDistance::l2()))
        .expect("reference facade");
    // Both cores: each thread answers one half in 64-query batches.
    let answer = |api: &QseApi| -> Vec<QueryResult> {
        std::thread::scope(|scope| {
            let halves: Vec<_> = queries
                .chunks(queries.len().div_ceil(2).max(1))
                .map(|half| {
                    scope.spawn(move || {
                        half.chunks(64)
                            .flat_map(|c| api.try_query_batch(c, K, P).expect("reference batch"))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            halves
                .into_iter()
                .flat_map(|h| h.join().expect("reference thread"))
                .collect()
        })
    };
    let without = answer(&api);
    let id = api
        .try_insert(far_object(points[0].len()))
        .expect("reference insert")
        .id;
    let with = answer(&api);
    api.try_remove(id).expect("reference remove");
    (without, with)
}

/// The writer connection: pair `j` is due at `schedule[j]`; its insert
/// must land at id `n` and its remove must take id `n` back, each
/// answering with the exact epoch the sequence implies.
fn write_loop(
    addr: std::net::SocketAddr,
    schedule: &[Duration],
    n: usize,
    epoch0: u64,
    dim: usize,
) -> Vec<Sent> {
    let insert = render(
        "POST",
        "/insert",
        Some(&format!(
            r#"{{"object":[{}]}}"#,
            far_object(dim)
                .iter()
                .map(|x| format!("{x:?}"))
                .collect::<Vec<_>>()
                .join(",")
        )),
    );
    let remove = render("POST", "/remove", Some(&format!(r#"{{"id":{n}}}"#)));
    let mut conn = Conn::open(addr).expect("writer connection");
    let start = Instant::now();
    let mut out = Vec::with_capacity(2 * schedule.len());
    for (j, &due) in schedule.iter().enumerate() {
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let epoch = epoch0 + 2 * j as u64;
        let ops = [
            (
                &insert,
                MutationReport {
                    id: n,
                    len: n + 1,
                    epoch: epoch + 1,
                },
            ),
            (
                &remove,
                MutationReport {
                    id: n,
                    len: n,
                    epoch: epoch + 2,
                },
            ),
        ];
        let mut due = due;
        for (request, report) in ops {
            let sent = start.elapsed();
            let ok = conn.send(request).is_ok_and(|(status, body)| {
                status == 200 && body == wire::mutation_json(&report).as_bytes()
            });
            let done = start.elapsed();
            out.push(Sent {
                due,
                sent,
                done,
                ok,
            });
            due = done;
        }
    }
    out
}

/// One read/write phase: reads on one connection beside the writer on
/// another. Returns the read and the write records.
fn churn_phase(
    server: &QseServer,
    reads: (&[Duration], &[Job<'_>]),
    pairs: &[Duration],
) -> (Vec<Sent>, Vec<Sent>) {
    let addr = server.addr();
    let api = server.api();
    let (n, dim) = (api.len(), api.dim());
    let epoch0 = api.info().epoch.expect("a concurrent index has epochs");
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || write_loop(addr, pairs, n, epoch0, dim));
        let reads = open_loop(addr, 1, reads.0, reads.1);
        (reads, writer.join().expect("writer thread"))
    })
}

pub fn run(args: &Args, tally: &Tally) -> Metrics {
    let origin = Instant::now();
    let seed = args.seed;
    let share = if args.trace { 0.5 } else { 1.0 };
    let round_secs = args.seconds * share / ROUNDS as f64;

    // Inputs: a fixed corpus and recall sample; the traffic from the seed.
    // Every read is a distinct query.
    let corpus = gaussian_corpus();
    let points = corpus.points.clone();
    let light_n = (LIGHT_READS * LIGHT_SHARE * round_secs).ceil() as usize;
    let heavy_n = (2.0 * LIGHT_READS * HEAVY_SHARE * round_secs).ceil() as usize;
    let light_pairs_n = (LIGHT_PAIRS * LIGHT_SHARE * round_secs).ceil() as usize;
    let heavy_pairs_n = (2.0 * LIGHT_PAIRS * HEAVY_SHARE * round_secs).ceil() as usize;
    let queries = corpus.queries(ROUNDS * (light_n + heavy_n), sub_seed(seed, 2));
    let schedule = |rate: f64, n: usize, stream: u64| -> Vec<Vec<Duration>> {
        (0..ROUNDS as u64)
            .map(|r| poisson_schedule(rate, n, sub_seed(seed, stream + r)))
            .collect()
    };
    let light_reads = schedule(LIGHT_READS, light_n, 100);
    let heavy_reads = schedule(2.0 * LIGHT_READS, heavy_n, 200);
    let light_pairs = schedule(LIGHT_PAIRS, light_pairs_n, 300);
    let heavy_pairs = schedule(2.0 * LIGHT_PAIRS, heavy_pairs_n, 400);
    let requests: Vec<Vec<u8>> = queries
        .iter()
        .map(|q| render("POST", "/query", Some(&query_body(q))))
        .collect();

    // Set up several times (inputs to first answered read).
    let counting = CountingDistance::new(LpDistance::l2());
    let l2 = LpDistance::l2();
    let mut times = Vec::new();
    let mut model = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let trained = train_model(&points, &l2);
        let train = t0.elapsed().as_secs_f64();
        let (server, index) = serve(&trained, &points, &counting);
        let build = t0.elapsed().as_secs_f64() - train;
        let (status, _) = Conn::open(server.addr())
            .and_then(|mut c| c.send(&requests[0]))
            .expect("first request");
        assert_eq!(status, 200, "first request refused");
        times.push(SetupTimes {
            total: t0.elapsed().as_secs_f64(),
            train,
            build,
            save: 0.0,
        });
        drop((server, index));
        model = Some(trained);
    }
    let model = model.expect("at least one set-up");
    // Memory of the served state, before the benchmark's own reference
    // tables and traffic.
    let rss_mb = peak_rss_mb();

    // Reference answers and the recall oracle, before timing.
    let recall_queries = corpus.queries(RECALL_SAMPLE, CORPUS_SEED + 1);
    let (without, with) = reference_answers(&model, &points, &queries);
    let expected: Vec<String> = without.iter().map(wire::result_json).collect();
    let alternative: Vec<String> = with.iter().map(wire::result_json).collect();
    let recall_answers: Vec<Vec<usize>> = reference_answers(&model, &points, &recall_queries)
        .0
        .into_iter()
        .map(|r| r.neighbors)
        .collect();
    let recall = recall_at_k(&recall_queries, &recall_answers, &points, &l2, K);
    let jobs: Vec<Job<'_>> = (0..queries.len())
        .map(|u| Job {
            request: &requests[u],
            expected: expected[u].as_bytes(),
            alternative: alternative[u].as_bytes(),
        })
        .collect();

    // Timed rounds: light and heavy each on a fresh server, then the
    // closed loop on one idle server.
    let (server, index) = serve(&model, &points, &counting);
    let mut rounds = Vec::new();
    let mut writes = Vec::new();
    let mut shape = (0, 0);
    let mut heavy_stats = BatcherStats::default();
    let mut closed_calls = 0;
    for r in 0..ROUNDS {
        let base = r * (light_n + heavy_n);
        let (fresh, fresh_index) = serve(&model, &points, &counting);
        let cpu = process_cpu();
        let (light, light_writes) = churn_phase(
            &fresh,
            (&light_reads[r], &jobs[base..base + light_n]),
            &light_pairs[r],
        );
        let before = fresh.batcher_stats();
        let (heavy, heavy_writes) = churn_phase(
            &fresh,
            (
                &heavy_reads[r],
                &jobs[base + light_n..base + light_n + heavy_n],
            ),
            &heavy_pairs[r],
        );
        let after = fresh.batcher_stats();
        let snapshot = fresh_index.snapshot();
        shape = (snapshot.segments(), snapshot.garbage_rows());
        heavy_stats.batches += after.batches - before.batches;
        heavy_stats.queries += after.queries - before.queries;
        heavy_stats.deduped += after.deduped - before.deduped;
        writes.extend(light_writes.into_iter().chain(heavy_writes));
        let before = counting.count();
        let closed = closed_loop(
            server.addr(),
            2,
            Duration::from_secs_f64(CLOSED_SHARE * round_secs),
            &jobs[base..],
        );
        closed_calls += counting.count() - before;
        rounds.push(Round {
            light,
            heavy,
            closed,
            cpu: process_cpu() - cpu,
        });
    }
    for r in rounds.iter().flat_map(Round::records).chain(&writes) {
        tally.record(r.ok);
    }
    let closed_ok: usize = rounds
        .iter()
        .map(|r| r.closed.records.iter().filter(|s| s.ok).count())
        .sum();

    let mut metrics = Metrics::default();
    SetupTimes::report(&times, args.trace, &mut metrics);
    if !args.trace {
        Round::report(&rounds, &mut metrics);
        metrics.set("recall_at_k", recall);
        metrics.set(
            "dist_per_query",
            closed_calls as f64 / closed_ok.max(1) as f64,
        );
        metrics.set("rss_mb", rss_mb);
        return metrics;
    }

    let mut tracer = Tracer::new(origin);
    Round::trace(&rounds, &mut tracer, &mut metrics);
    let write_ms: Vec<f64> = writes.iter().map(|r| ms(r.latency())).collect();
    metrics.set("http.write_p50_ms", quantile(&write_ms, 0.50));
    metrics.set("http.write_p99_ms", quantile(&write_ms, 0.99));
    metrics.set("concurrent.segments", shape.0 as f64);
    metrics.set("concurrent.garbage_rows", shape.1 as f64);
    metrics.set(
        "batcher.mean_batch",
        heavy_stats.queries as f64 / heavy_stats.batches.max(1) as f64,
    );
    metrics.set(
        "batcher.dedupe_ratio",
        heavy_stats.deduped as f64 / heavy_stats.queries.max(1) as f64,
    );

    // Serving path of a lone read on the idle closed-loop server.
    let reader = index.reader();
    let lib_counting = CountingDistance::new(LpDistance::l2());
    let retrieve = |q: &Vec<f64>| {
        let before = lib_counting.count();
        let ids = reader
            .try_retrieve(q, &lib_counting, K, P)
            .expect("library retrieve");
        std::hint::black_box(ids);
        lib_counting.count() - before
    };
    let counter = || counting.count();
    let api: Arc<QseApi> = Arc::clone(server.api());
    let path = ServingPath {
        api: &api,
        addr: server.addr(),
        queries: &queries,
        retrieve: &retrieve,
        counter: &counter,
        budget: Duration::from_secs_f64(0.25 * args.seconds),
    };
    path.probe(&mut tracer, tally, &mut metrics);
    metrics.set("concurrent.retrieve_us", tracer.p50_us("library.retrieve"));
    drop(server);

    // The write handle on a fresh index: insert the far object, take it
    // out again.
    let fresh = fresh_index(&model, &points);
    let mut writer = fresh.writer();
    let far = far_object(points[0].len());
    for r in 0..200 {
        let id = tracer.span(r, "concurrent.insert", None, || {
            writer.insert(far.clone(), &l2)
        });
        let removed = tracer.span(r, "concurrent.remove", None, || writer.try_remove(id));
        tally.record(removed.is_ok());
    }
    metrics.set("concurrent.insert_us", tracer.p50_us("concurrent.insert"));
    metrics.set("concurrent.remove_us", tracer.p50_us("concurrent.remove"));

    let sample = &queries[..queries.len().min(200)];
    probe_embedding(&mut tracer, &model, sample, &lib_counting, &mut metrics);
    metrics.set("distance.exact_us", exact_us(&l2, &points, 200_000));
    let flat = qse_retrieval::FilterRefineIndex::<Vec<f64>, f64>::build_query_sensitive_with_store(
        model.clone(),
        &points,
        &l2,
    );
    probe_kernels(
        &mut tracer,
        &model,
        flat.vectors(),
        sample,
        &l2,
        true,
        &mut metrics,
    );
    tracer.dump("churn-concurrent");
    metrics
}
