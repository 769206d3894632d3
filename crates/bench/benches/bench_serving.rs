//! Serving-path benchmark: measured p50/p99 latency and queries/second
//! of the HTTP front end, swept over the number of concurrent keep-alive
//! clients. Admission is work-conserving — a lone request is answered at
//! once and batches form only from the backlog of busy workers — so the
//! sweep shows where batching starts: one client never batches, eight
//! clients on two workers build a backlog and the mean batch grows.
//!
//! For each client count the bench starts a [`QseServer`] over a routed
//! `u8` index (snapshot-loadable deployment shape), drives it with that
//! many keep-alive TCP clients replaying a duplicate-scattered query mix,
//! and prints one row:
//!
//! ```text
//! serving/np6of32/clients8  p50 1.72ms  p99 3.55ms  4427 req/s  mean batch 2.7  deduped 89
//! ```
//!
//! Run with `cargo bench -p qse-bench --bench bench_serving`; the
//! `--test` flag (CI's bench smoke) shrinks the workload to a quick
//! single pass. Not a criterion harness: latency percentiles under
//! concurrent load need wall-clock histograms, not per-iteration means.

use qse_core::{BoostMapTrainer, TrainerConfig, TrainingData, TripleSampler};
use qse_dataset::{GaussianMixture, GaussianMixtureConfig};
use qse_distance::LpDistance;
use qse_retrieval::{ConcurrentIndex, DynamicIndex, RoutedConfig, RoutedIndex};
use qse_serve::{QseApi, QseServer, ServeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const K: usize = 10;
const P: usize = 100;

struct Load {
    rows: usize,
    dim: usize,
    /// Closed-loop requests per cell, split evenly across its clients.
    requests: usize,
}

/// The closed-loop request mix: every third request repeats an earlier
/// query, so the deduped column reflects a realistic repeated-query
/// share.
fn request_bodies(load: &Load, queries: &[Vec<f64>]) -> Vec<String> {
    (0..load.requests)
        .map(|i| {
            let qi = if i % 3 == 2 { i / 2 } else { i } % queries.len();
            query_body(&queries[qi])
        })
        .collect()
}

fn train_model(database: &[Vec<f64>], distance: &LpDistance) -> qse_core::QseModel<Vec<f64>> {
    let pool: Vec<Vec<f64>> = database.iter().take(80).cloned().collect();
    let data = TrainingData::precompute(pool.clone(), pool, distance, 6);
    let mut rng = StdRng::seed_from_u64(1717);
    let triples = TripleSampler::selective(4).sample(&data.train_to_train, 600, &mut rng);
    BoostMapTrainer::new(TrainerConfig::quick()).train(&data, &triples, &mut rng)
}

fn build_api(load: &Load) -> (QseApi, Vec<Vec<f64>>) {
    let mix = GaussianMixture::generate(GaussianMixtureConfig {
        rows: load.rows,
        dim: load.dim,
        clusters: 32,
        center_box: 10.0,
        spread: 0.5,
        seed: 0x5EED_CAFE,
    });
    let queries = mix.queries(128, 0xBEEF);
    let distance = LpDistance::l2();
    let model = train_model(&mix.points, &distance);
    let index = RoutedIndex::<_, u8>::build_query_sensitive_with_store(
        model,
        &mix.points,
        &distance,
        RoutedConfig {
            cells: 32,
            n_probe: 6,
            ..RoutedConfig::default()
        },
    );
    let api = QseApi::from_routed(index, mix.points, Box::new(LpDistance::l2()))
        .expect("facade construction");
    (api, queries)
}

fn post(stream: &mut TcpStream, body: &str) -> u16 {
    post_to(stream, "/query", body)
}

fn post_to(stream: &mut TcpStream, path: &str, body: &str) -> u16 {
    stream
        .write_all(
            format!(
                "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("request write");
    // Head, then Content-Length body bytes (keep-alive: the connection
    // carries the next request).
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("response head");
        head.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&head).to_string();
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("Content-Length");
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("response body");
    status
}

fn query_body(query: &[f64]) -> String {
    let coords: Vec<String> = query.iter().map(|x| format!("{x:?}")).collect();
    format!(r#"{{"query":[{}],"k":{K},"p":{P}}}"#, coords.join(","))
}

fn percentile(sorted: &[Duration], q: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx]
}

/// One bench cell: serve `api` to `clients` closed-loop keep-alive
/// clients, report the latency histogram, throughput and how much the
/// backlog batched and deduplicated.
fn run_cell(load: &Load, api: QseApi, queries: &[Vec<f64>], clients: usize, label: &str) {
    let bodies = request_bodies(load, queries);
    let mut server = QseServer::start(api, ServeConfig::default()).expect("server start");
    let addr: SocketAddr = server.addr();

    let wall = Instant::now();
    let mut latencies: Vec<Duration> = Vec::with_capacity(bodies.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = bodies
            .chunks(bodies.len().div_ceil(clients))
            .map(|chunk| {
                scope.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    stream
                        .set_read_timeout(Some(Duration::from_secs(60)))
                        .unwrap();
                    let mut local = Vec::with_capacity(chunk.len());
                    for body in chunk {
                        let start = Instant::now();
                        let status = post(&mut stream, body);
                        local.push(start.elapsed());
                        assert_eq!(status, 200);
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            latencies.extend(handle.join().expect("client thread"));
        }
    });
    let wall = wall.elapsed();
    latencies.sort();
    let stats = server.batcher_stats();
    println!(
        "serving/{label}  p50 {:.2?}  p99 {:.2?}  {:.0} req/s  mean batch {:.1}  deduped {}",
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
        latencies.len() as f64 / wall.as_secs_f64(),
        stats.queries as f64 / stats.batches.max(1) as f64,
        stats.deduped
    );
    server.shutdown();
}

/// Open-loop cell: requests fire on a fixed-rate seeded arrival schedule
/// (exponential inter-arrivals — a Poisson process at the offered rate,
/// same seed for every cell) whether or not earlier responses have come
/// back, and every latency is measured from the request's **scheduled**
/// arrival time, not its actual send time. That charges server queueing
/// delay to the requests that suffered it instead of silently slowing
/// the injection down — the coordinated-omission failure mode that makes
/// closed-loop clients understate saturated-tail latency and flatter
/// admission batching far less than it deserves. The printed
/// achieved-vs-offered pair makes saturation explicit: achieved tracking
/// offered means the server kept up; achieved falling short means the
/// offered rate exceeded capacity and the p99 shows the queue.
fn run_open_loop_cell(
    api: QseApi,
    queries: &[Vec<f64>],
    conns: usize,
    offered_qps: f64,
    total: usize,
    label: &str,
) {
    // The full schedule up front: arrival offsets from the common start,
    // dealt round-robin across connections so each carries an equal and
    // deterministic share. Bodies reuse the duplicate-scattered mix.
    let mut rng = StdRng::seed_from_u64(0x0FFE_4ED0);
    let mut offset = Duration::ZERO;
    let mut schedule: Vec<(Duration, String)> = Vec::with_capacity(total);
    for i in 0..total {
        // Exponential inter-arrival: -ln(U) / rate, U in (0, 1].
        let u = 1.0 - rng.next_f64();
        offset += Duration::from_secs_f64(-u.ln() / offered_qps);
        let qi = if i % 3 == 2 { i / 2 } else { i } % queries.len();
        schedule.push((offset, query_body(&queries[qi])));
    }

    let mut server = QseServer::start(api, ServeConfig::default()).expect("server start");
    let addr: SocketAddr = server.addr();

    let start = Instant::now();
    let mut latencies: Vec<Duration> = Vec::with_capacity(total);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let share: Vec<&(Duration, String)> =
                    schedule.iter().skip(c).step_by(conns).collect();
                scope.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    stream
                        .set_read_timeout(Some(Duration::from_secs(60)))
                        .unwrap();
                    let mut local = Vec::with_capacity(share.len());
                    for (arrival, body) in share {
                        if let Some(wait) = arrival.checked_sub(start.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let status = post(&mut stream, body);
                        // From the scheduled arrival, so time spent
                        // queued behind a busy connection counts too.
                        local.push(start.elapsed().saturating_sub(*arrival));
                        assert_eq!(status, 200);
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            latencies.extend(handle.join().expect("client thread"));
        }
    });
    let wall = start.elapsed();
    latencies.sort();
    let achieved = total as f64 / wall.as_secs_f64();
    let stats = server.batcher_stats();
    println!(
        "serving-open/{label}  p50 {:.2?}  p99 {:.2?}  offered {:.0} req/s  achieved {:.0} req/s ({:.0}%)  mean batch {:.1}",
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
        offered_qps,
        achieved,
        100.0 * achieved / offered_qps,
        stats.queries as f64 / stats.batches.max(1) as f64,
    );
    server.shutdown();
}

/// A concurrent-index facade over the same Gaussian workload: reads
/// drain against epoch snapshots, writes land over HTTP.
fn build_concurrent_api(load: &Load) -> (QseApi, Vec<Vec<f64>>) {
    let mix = GaussianMixture::generate(GaussianMixtureConfig {
        rows: load.rows,
        dim: load.dim,
        clusters: 32,
        center_box: 10.0,
        spread: 0.5,
        seed: 0x5EED_CAFE,
    });
    let queries = mix.queries(128, 0xBEEF);
    let distance = LpDistance::l2();
    let model = train_model(&mix.points, &distance);
    let index = ConcurrentIndex::from_dynamic(DynamicIndex::<_, u8>::with_store(
        model, mix.points, &distance,
    ));
    let api =
        QseApi::from_concurrent(index, Box::new(LpDistance::l2())).expect("facade construction");
    (api, queries)
}

/// Read-latency-under-write cell: the identical closed-loop read drive
/// as [`run_cell`], optionally with a background writer hammering
/// `POST /insert` + `POST /remove` pairs over its own keep-alive
/// connection for the whole run. The with/without pair is the measured
/// price of mutation on the read path — epoch-snapshot publication is
/// the only coupling, so the p99s should sit close together.
fn run_read_while_write_cell(
    load: &Load,
    api: QseApi,
    queries: &[Vec<f64>],
    clients: usize,
    writer_on: bool,
    label: &str,
) {
    let n = api.len();
    let dim = api.dim();
    let bodies = request_bodies(load, queries);

    let mut server = QseServer::start(api, ServeConfig::default()).expect("server start");
    let addr: SocketAddr = server.addr();

    let done = std::sync::atomic::AtomicBool::new(false);
    let wall = Instant::now();
    let mut latencies: Vec<Duration> = Vec::with_capacity(bodies.len());
    let mut writes = 0usize;
    std::thread::scope(|scope| {
        let writer = writer_on.then(|| {
            let done = &done;
            scope.spawn(move || {
                // Insert a far-off object, then remove it again: the
                // writer is the only mutator, so the fresh id is always
                // `n` and the swap-remove takes the same slot back —
                // index length (and so p-validity) never drifts.
                let mut stream = TcpStream::connect(addr).expect("writer connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .unwrap();
                let coords: Vec<String> = (0..dim).map(|c| format!("{}.5", 40 + c)).collect();
                let insert = format!(r#"{{"object":[{}]}}"#, coords.join(","));
                let remove = format!(r#"{{"id":{n}}}"#);
                let mut ops = 0usize;
                while !done.load(std::sync::atomic::Ordering::SeqCst) {
                    assert_eq!(post_to(&mut stream, "/insert", &insert), 200);
                    assert_eq!(post_to(&mut stream, "/remove", &remove), 200);
                    ops += 2;
                    std::thread::sleep(Duration::from_millis(1));
                }
                ops
            })
        });
        let handles: Vec<_> = bodies
            .chunks(bodies.len().div_ceil(clients))
            .map(|chunk| {
                scope.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    stream
                        .set_read_timeout(Some(Duration::from_secs(60)))
                        .unwrap();
                    let mut local = Vec::with_capacity(chunk.len());
                    for body in chunk {
                        let start = Instant::now();
                        let status = post(&mut stream, body);
                        local.push(start.elapsed());
                        assert_eq!(status, 200);
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            latencies.extend(handle.join().expect("client thread"));
        }
        done.store(true, std::sync::atomic::Ordering::SeqCst);
        if let Some(writer) = writer {
            writes = writer.join().expect("writer thread");
        }
    });
    let wall = wall.elapsed();
    latencies.sort();
    println!(
        "serving-rw/{label}  p50 {:.2?}  p99 {:.2?}  {:.0} req/s  writes {} ({:.0}/s)",
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
        latencies.len() as f64 / wall.as_secs_f64(),
        writes,
        writes as f64 / wall.as_secs_f64(),
    );
    server.shutdown();
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let load = if smoke {
        Load {
            rows: 2_000,
            dim: 16,
            requests: 32,
        }
    } else {
        Load {
            rows: 50_000,
            dim: 32,
            requests: 768,
        }
    };

    let setup = Instant::now();
    println!(
        "serving bench: routed u8 index, {} rows dim {}, {} requests per cell, k={K} p={P}",
        load.rows, load.dim, load.requests
    );
    // Client-count sweep: one client is a lone request at a time (no
    // backlog, batch size 1); two clients match the two workers; eight
    // clients queue behind busy workers, which is where batches form.
    for clients in [1, 2, 8] {
        // Each cell gets a fresh index build (the facade moves into the
        // server); identical seeds make every cell serve identical state.
        let (api, queries) = build_api(&load);
        let label = format!("np6of32/clients{clients}");
        run_cell(&load, api, &queries, clients, &label);
    }

    // Open-loop sweep: offered rates straddling the closed-loop
    // throughput, so the output shows both a keeping-up cell (achieved ≈
    // offered, low p99) and a saturated cell (achieved < offered,
    // queueing-dominated p99).
    let open_cells: &[(f64, usize, usize)] = if smoke {
        &[(200.0, 4, 32)] // (offered req/s, connections, total requests)
    } else {
        &[
            (1_000.0, 16, 2_400),
            (2_000.0, 16, 2_400),
            (4_000.0, 16, 2_400),
        ]
    };
    for &(offered, conns, total) in open_cells {
        let (api, queries) = build_api(&load);
        let label = format!("np6of32/{}qps", offered as u64);
        run_open_loop_cell(api, &queries, conns, offered, total, &label);
    }

    // Read-latency-under-write pair over the concurrent index: the same
    // closed-loop drive (eight clients) against the same workload, first
    // with the write handle idle, then with a background writer landing
    // insert/remove pairs over HTTP throughout. The gap between the two
    // p99 columns is what live mutation costs concurrent readers.
    for writer_on in [false, true] {
        let (api, queries) = build_concurrent_api(&load);
        let tag = if writer_on {
            "write-churn"
        } else {
            "writer-idle"
        };
        run_read_while_write_cell(
            &load,
            api,
            &queries,
            8,
            writer_on,
            &format!("flat-u8/clients8/{tag}"),
        );
    }
    eprintln!("total bench wall time {:.2?}", setup.elapsed());
}
