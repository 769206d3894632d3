//! Admission-batch equivalence: whatever the arrival interleaving, the
//! worker count (1 / 2 / 8) or the scatter of duplicate queries, every
//! request answered through the [`Batcher`] must be **bit-identical** to
//! a sequential `retrieve` of the same query — the batch-equals-
//! sequential guarantee of `parallel_equivalence`, extended through the
//! admission layer that answers lone requests at once and batches the
//! backlog.
//!
//! Also pinned: equal queries share one execution without changing any
//! answer (the stats counters move), sequential requests on an idle
//! batcher answer correctly, and every facade backend (static / routed /
//! dynamic / concurrent) serves the same results through the batcher as
//! directly. In-flight coalescing gets its own tests: joiners of an
//! executing query get its exact answer, are released with the typed
//! error when the execution fails or panics, never join an execution
//! pinned before a mutation they were admitted after, and count in both
//! `queries` and `deduped`.

mod common;

use common::with_thread_count;
use query_sensitive_embeddings::distance::traits::{FnDistance, MetricProperties};
use query_sensitive_embeddings::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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

/// The exact distance a facade refines with.
type Measure = Box<dyn DistanceMeasure<Vec<f64>>>;

/// A facade constructor over a database and a refine distance.
type ApiWith = fn(&[Vec<f64>], Measure) -> QseApi;

fn static_api(db: &[Vec<f64>]) -> QseApi {
    static_api_with(db, Box::new(LpDistance::l2()))
}

fn static_api_with(db: &[Vec<f64>], distance: Measure) -> QseApi {
    let d = LpDistance::l2();
    let model = train_model(db);
    let index = FilterRefineIndex::<_, u8>::build_query_sensitive_with_store(model, db, &d);
    QseApi::from_static(index, db.to_vec(), distance).unwrap()
}

fn routed_api_with(db: &[Vec<f64>], distance: Measure) -> QseApi {
    let d = LpDistance::l2();
    let model = train_model(db);
    let index = RoutedIndex::<_, u8>::build_query_sensitive_with_store(
        model,
        db,
        &d,
        RoutedConfig {
            cells: 8,
            n_probe: 3,
            ..RoutedConfig::default()
        },
    );
    QseApi::from_routed(index, db.to_vec(), distance).unwrap()
}

fn dynamic_api_with(db: &[Vec<f64>], distance: Measure) -> QseApi {
    let d = LpDistance::l2();
    let model = train_model(db);
    let index = DynamicIndex::<_, u8>::with_store(model, db.to_vec(), &d);
    QseApi::from_dynamic(index, distance).unwrap()
}

fn concurrent_api_with(db: &[Vec<f64>], distance: Measure) -> QseApi {
    let d = LpDistance::l2();
    let model = train_model(db);
    let index =
        ConcurrentIndex::from_dynamic(DynamicIndex::<_, u8>::with_store(model, db.to_vec(), &d));
    QseApi::from_concurrent(index, distance).unwrap()
}

/// Holds the execution of one query inside the exact distance: once
/// armed, a distance call whose query side is bit-equal to the armed
/// query marks the gate entered and blocks until [`Gate::open`]. That
/// keeps an execution in flight for as long as a test needs, without
/// timing assumptions.
#[derive(Default)]
struct Gate {
    state: Mutex<GateState>,
    changed: Condvar,
}

#[derive(Default)]
struct GateState {
    armed: Option<Vec<f64>>,
    entered: bool,
    open: bool,
    panic: bool,
}

impl Gate {
    /// Hold the next execution of `query` (which then panics if `panic`).
    fn arm(&self, query: &[f64], panic: bool) {
        *self.state.lock().unwrap() = GateState {
            armed: Some(query.to_vec()),
            panic,
            ..GateState::default()
        };
    }

    /// Called by the gated distance on every call.
    fn pass(&self, query: &[f64]) {
        let mut state = self.state.lock().unwrap();
        if state.armed.as_deref() != Some(query) {
            return;
        }
        state.entered = true;
        self.changed.notify_all();
        // A test that fails while the gate is shut drops its batcher,
        // which joins the held worker: give up after a minute so the
        // failure is reported instead of hanging.
        let start = Instant::now();
        while !state.open {
            if start.elapsed() > Duration::from_secs(60) {
                drop(state);
                panic!("the gate was never opened");
            }
            state = self
                .changed
                .wait_timeout(state, Duration::from_millis(10))
                .unwrap()
                .0;
        }
        let panic = std::mem::take(&mut state.panic);
        drop(state);
        assert!(!panic, "the gated query panicked");
    }

    fn wait_entered(&self) {
        let start = Instant::now();
        let mut state = self.state.lock().unwrap();
        while !state.entered {
            assert!(
                start.elapsed() < Duration::from_secs(60),
                "the gated query never reached the distance"
            );
            state = self
                .changed
                .wait_timeout(state, Duration::from_millis(10))
                .unwrap()
                .0;
        }
    }

    /// Let the held execution finish; later calls pass straight through.
    fn open(&self) {
        let mut state = self.state.lock().unwrap();
        state.open = true;
        state.armed = None;
        self.changed.notify_all();
    }
}

/// L2, held at every gate in `gates` (see [`Gate`]).
fn gated_l2(gates: Vec<Arc<Gate>>) -> Measure {
    Box::new(FnDistance::new(
        "gated-l2",
        MetricProperties::Metric,
        move |a: &Vec<f64>, b: &Vec<f64>| {
            for gate in &gates {
                gate.pass(a);
            }
            LpDistance::l2().distance(a, b)
        },
    ))
}

/// One worker, so a gated execution holds the whole pool.
fn one_worker() -> BatcherConfig {
    BatcherConfig {
        max_batch: 64,
        workers: 1,
    }
}

/// A request mix with duplicates scattered through it: every third
/// request repeats an earlier query verbatim.
fn request_mix(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let fresh = clustered(n, seed);
    let mut mix: Vec<Vec<f64>> = Vec::with_capacity(n);
    for (i, q) in fresh.into_iter().enumerate() {
        if i % 3 == 2 {
            mix.push(mix[i / 2].clone());
        } else {
            mix.push(q);
        }
    }
    mix
}

/// A query in no test database, for holding a worker at a gate.
fn unrelated_query(seed: u64) -> Vec<f64> {
    clustered(1, seed).remove(0)
}

/// Fire `requests` at the batcher from `clients` OS threads concurrently
/// and assert each answer equals the sequential per-query ground truth.
/// Then queue the same requests as a backlog behind executions held on
/// every worker, so they drain as multi-request batches with duplicates
/// in them, and assert the same.
fn assert_batched_equals_sequential(
    build: ApiWith,
    db: &[Vec<f64>],
    clients: usize,
    workers: usize,
) {
    let (k, p) = (3, 25);
    let requests = request_mix(48, 0xA11CE);
    let gates: Vec<Arc<Gate>> = (0..workers).map(|_| Arc::default()).collect();
    let api = build(db, gated_l2(gates.clone()));
    let expected: Vec<QueryResult> = requests
        .iter()
        .map(|q| api.try_query(q, k, p).unwrap())
        .collect();

    let api = Arc::new(api);
    let config = BatcherConfig {
        max_batch: 16,
        workers,
    };
    let batcher = Arc::new(Batcher::start(Arc::clone(&api), config));

    let chunk = requests.len().div_ceil(clients);
    std::thread::scope(|scope| {
        for (c, slice) in requests.chunks(chunk).enumerate() {
            let batcher = Arc::clone(&batcher);
            let expected = &expected;
            let offset = c * chunk;
            scope.spawn(move || {
                for (i, query) in slice.iter().enumerate() {
                    let result = batcher.query(query.clone(), k, p).unwrap();
                    assert_eq!(
                        result,
                        expected[offset + i],
                        "request {} diverged from sequential retrieval",
                        offset + i
                    );
                }
            });
        }
    });

    let stats = batcher.stats();
    assert_eq!(
        stats.queries,
        requests.len() as u64,
        "every request must be admitted exactly once"
    );
    assert!(stats.batches >= 1);

    // The backlog: every worker holds an unrelated query at its own gate
    // while the whole mix queues behind them in order.
    let batcher = Batcher::start(Arc::clone(&api), config);
    let held: Vec<Ticket> = gates
        .iter()
        .enumerate()
        .map(|(w, gate)| {
            let hold = unrelated_query(0x401D + w as u64);
            gate.arm(&hold, false);
            let ticket = batcher.submit(hold, k, p).unwrap();
            gate.wait_entered();
            ticket
        })
        .collect();
    let tickets: Vec<Ticket> = requests
        .iter()
        .map(|q| batcher.submit(q.clone(), k, p).unwrap())
        .collect();
    for gate in &gates {
        gate.open();
    }
    for (i, ticket) in tickets.into_iter().enumerate() {
        assert_eq!(
            answer(ticket).unwrap(),
            expected[i],
            "backlog request {i} diverged from sequential retrieval"
        );
    }
    assert!(held.into_iter().all(|ticket| answer(ticket).is_ok()));
    let stats = batcher.stats();
    assert_eq!(stats.queries, (workers + requests.len()) as u64);
    assert_eq!(
        stats.batches,
        (workers + requests.len().div_ceil(config.max_batch)) as u64,
        "the backlog must drain in max_batch chunks"
    );
    assert!(
        stats.deduped > 0,
        "duplicates within a backlog batch must share a result (stats: {stats:?})"
    );
}

#[test]
fn batched_equals_sequential_across_worker_counts_static() {
    let db = clustered(300, 11);
    for workers in [1, 2, 8] {
        assert_batched_equals_sequential(static_api_with, &db, 6, workers);
    }
}

#[test]
fn batched_equals_sequential_across_worker_counts_routed() {
    let db = clustered(300, 12);
    for workers in [1, 2, 8] {
        assert_batched_equals_sequential(routed_api_with, &db, 6, workers);
    }
}

#[test]
fn batched_equals_sequential_across_worker_counts_dynamic() {
    let db = clustered(300, 13);
    for workers in [1, 2, 8] {
        assert_batched_equals_sequential(dynamic_api_with, &db, 6, workers);
    }
}

#[test]
fn batched_equals_sequential_under_substrate_thread_matrix() {
    // The admission layer on top of the rayon-pool thread counts the
    // parallel_equivalence suite pins: client threads and kernel threads
    // vary independently.
    let db = clustered(300, 14);
    for threads in [1, 2, 8] {
        with_thread_count(threads, || {
            assert_batched_equals_sequential(static_api_with, &db, 4, 2);
        });
    }
}

#[test]
fn dedupe_fires_and_changes_nothing() {
    let db = clustered(300, 15);
    let gate = Arc::new(Gate::default());
    let api = Arc::new(static_api_with(&db, gated_l2(vec![Arc::clone(&gate)])));
    let (k, p) = (3, 25);
    let query = db[7].clone();
    let expected = api.try_query(&query, k, p).unwrap();

    // Within a batch: the eight clones queue behind an unrelated held
    // query and drain as one batch, so seven share the first's result.
    let batcher = Batcher::start(Arc::clone(&api), one_worker());
    let hold = unrelated_query(0x401D);
    gate.arm(&hold, false);
    let held = batcher.submit(hold, k, p).unwrap();
    gate.wait_entered();
    let clones: Vec<Ticket> = (0..8)
        .map(|_| batcher.submit(query.clone(), k, p).unwrap())
        .collect();
    gate.open();
    assert!(answer(held).is_ok());
    for clone in clones {
        assert_eq!(answer(clone).unwrap(), expected);
    }
    let stats = batcher.stats();
    assert_eq!(
        (stats.batches, stats.queries, stats.deduped),
        (2, 1 + 8, 7),
        "equal queries in one batch must share a result (stats: {stats:?})"
    );

    // In flight: the first clone's execution is held at the gate while
    // the other seven arrive and join it.
    let batcher = Batcher::start(Arc::clone(&api), one_worker());
    gate.arm(&query, false);
    let (answers, _) = hold_and_join(&batcher, &gate, &query, k, p, 7);
    for answer in answers {
        assert_eq!(answer.unwrap(), expected);
    }
    let stats = batcher.stats();
    assert_eq!(stats.queries, 8);
    assert!(
        stats.deduped > 0,
        "equal queries in flight together must share a result (stats: {stats:?})"
    );
}

#[test]
fn zero_latency_budget_still_answers_correctly() {
    // Named for the old zero-width admission window; admission no
    // longer waits at all, so this pins sequential lone requests on an
    // idle batcher.
    let db = clustered(300, 16);
    let api = Arc::new(static_api(&db));
    let (k, p) = (3, 25);
    let batcher = Batcher::start(
        Arc::clone(&api),
        BatcherConfig {
            max_batch: 8,
            workers: 2,
        },
    );
    for q in clustered(12, 17) {
        let expected = api.try_query(&q, k, p).unwrap();
        assert_eq!(batcher.query(q, k, p).unwrap(), expected);
    }
}

#[test]
fn mixed_k_p_requests_group_correctly() {
    let db = clustered(300, 18);
    let gate = Arc::new(Gate::default());
    let api = Arc::new(static_api_with(&db, gated_l2(vec![Arc::clone(&gate)])));
    let batcher = Arc::new(Batcher::start(
        Arc::clone(&api),
        BatcherConfig {
            max_batch: 32,
            workers: 2,
        },
    ));
    let queries = clustered(24, 19);
    // Three different (k, p) shapes interleaved in one wave.
    let shape = |i: usize| [(1, 10), (3, 25), (5, 40)][i % 3];
    std::thread::scope(|scope| {
        for (i, q) in queries.iter().enumerate() {
            let batcher = Arc::clone(&batcher);
            let api = Arc::clone(&api);
            scope.spawn(move || {
                let (k, p) = shape(i);
                let expected = api.try_query(q, k, p).unwrap();
                assert_eq!(batcher.query(q.clone(), k, p).unwrap(), expected);
            });
        }
    });

    // The same wave, its first six requests repeated, queued behind a
    // held query: one batch of three (k, p) groups, each with duplicates.
    let batcher = Batcher::start(Arc::clone(&api), one_worker());
    let hold = unrelated_query(0x401D);
    gate.arm(&hold, false);
    let held = batcher.submit(hold, 3, 25).unwrap();
    gate.wait_entered();
    let wave: Vec<usize> = (0..queries.len()).chain(0..6).collect();
    let tickets: Vec<Ticket> = wave
        .iter()
        .map(|&i| {
            let (k, p) = shape(i);
            batcher.submit(queries[i].clone(), k, p).unwrap()
        })
        .collect();
    gate.open();
    assert!(answer(held).is_ok());
    for (&i, ticket) in wave.iter().zip(tickets) {
        let (k, p) = shape(i);
        let expected = api.try_query(&queries[i], k, p).unwrap();
        assert_eq!(answer(ticket).unwrap(), expected);
    }
    let stats = batcher.stats();
    assert_eq!((stats.batches, stats.queries, stats.deduped), (2, 31, 6));
}

#[test]
fn malformed_requests_are_rejected_at_admission() {
    let db = clustered(300, 20);
    let api = Arc::new(static_api(&db));
    let batcher = Batcher::start(Arc::clone(&api), BatcherConfig::default());

    let q = db[0].clone();
    assert_eq!(
        batcher.query(q.clone(), 0, 10),
        Err(RequestError::Query(QueryError::BadK { k: 0 }))
    );
    assert_eq!(
        batcher.query(q.clone(), 5, 2),
        Err(RequestError::Query(QueryError::BadP {
            k: 5,
            p: 2,
            max: 300
        }))
    );
    assert_eq!(
        batcher.query(q.clone(), 1, 10_000),
        Err(RequestError::Query(QueryError::BadP {
            k: 1,
            p: 10_000,
            max: 300
        }))
    );
    assert_eq!(
        batcher.query(vec![1.0, 2.0, 3.0], 1, 10),
        Err(RequestError::Query(QueryError::DimMismatch {
            expected: 2,
            got: 3
        }))
    );
    // The batcher still serves after every rejection.
    assert!(batcher.query(q, 3, 25).is_ok());
}

type Answer = Result<QueryResult, RequestError>;

/// The answer of a submitted request; a minute without one fails the
/// test instead of hanging it.
fn answer(ticket: Ticket) -> Answer {
    let (reply, answer) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = reply.send(ticket.wait());
    });
    answer
        .recv_timeout(Duration::from_secs(60))
        .expect("a request was never answered")
}

/// Hold one execution of `query` at the gate, send `joiners` more copies
/// while it is in flight, and return every answer (the held request's
/// first) together with the stats read just before the gate opened.
fn hold_and_join(
    batcher: &Batcher,
    gate: &Gate,
    query: &[f64],
    k: usize,
    p: usize,
    joiners: usize,
) -> (Vec<Answer>, BatcherStats) {
    let before = batcher.stats();
    let held = batcher.submit(query.to_vec(), k, p).unwrap();
    gate.wait_entered();
    let joined: Vec<Ticket> = (0..joiners)
        .map(|_| batcher.submit(query.to_vec(), k, p).unwrap())
        .collect();
    let stats = batcher.stats();
    assert_eq!(
        stats.deduped - before.deduped,
        joiners as u64,
        "every joiner must join the held execution"
    );
    gate.open();
    let answers = std::iter::once(held).chain(joined).map(answer).collect();
    (answers, stats)
}

#[test]
fn joiners_get_answers_bit_identical_to_try_query() {
    let db = clustered(300, 21);
    let backends: [ApiWith; 4] = [
        static_api_with,
        routed_api_with,
        dynamic_api_with,
        concurrent_api_with,
    ];
    let (k, p) = (3, 25);
    for build in backends {
        let gate = Arc::new(Gate::default());
        let api = Arc::new(build(&db, gated_l2(vec![Arc::clone(&gate)])));
        let batcher = Batcher::start(Arc::clone(&api), one_worker());
        for query in clustered(3, 22) {
            let expected = api.try_query(&query, k, p).unwrap();
            gate.arm(&query, false);
            let (answers, _) = hold_and_join(&batcher, &gate, &query, k, p, 5);
            for answer in answers {
                assert_eq!(
                    answer.unwrap(),
                    expected,
                    "{} backend: a joiner diverged from try_query",
                    api.backend()
                );
            }
        }
    }
}

#[test]
fn stats_count_every_joiner_in_queries_and_deduped() {
    let db = clustered(300, 23);
    let gate = Arc::new(Gate::default());
    let api = Arc::new(static_api_with(&db, gated_l2(vec![Arc::clone(&gate)])));
    let batcher = Batcher::start(Arc::clone(&api), one_worker());
    let query = db[11].clone();
    gate.arm(&query, false);
    let (answers, held) = hold_and_join(&batcher, &gate, &query, 3, 25, 6);
    assert!(answers.iter().all(Result::is_ok));
    // While held: the one executing request plus six joiners.
    assert_eq!(
        held,
        BatcherStats {
            batches: 1,
            queries: 7,
            deduped: 6,
        }
    );
    let stats = batcher.stats();
    assert_eq!((stats.queries, stats.deduped), (7, 6));
    assert!(stats.deduped <= stats.queries);
}

#[test]
fn joiners_are_released_with_the_typed_error_on_the_panic_path() {
    let db = clustered(300, 24);
    let gate = Arc::new(Gate::default());
    let api = Arc::new(static_api_with(&db, gated_l2(vec![Arc::clone(&gate)])));
    let batcher = Batcher::start(Arc::clone(&api), one_worker());
    let query = db[5].clone();
    gate.arm(&query, true);
    let (answers, _) = hold_and_join(&batcher, &gate, &query, 3, 25, 4);
    assert_eq!(answers.len(), 5);
    for answer in answers {
        assert_eq!(
            answer,
            Err(RequestError::Internal("the gated query panicked".into()))
        );
    }
    // The worker survived the panic and serves on.
    let expected = api.try_query(&query, 3, 25).unwrap();
    assert_eq!(batcher.query(query, 3, 25).unwrap(), expected);
}

#[test]
fn joiners_are_released_with_the_typed_error_on_the_error_path() {
    // Admission validates against the current length; an execution that
    // a remove overtook fails against the smaller one. Sequence on one
    // worker: C is held, B and A queue behind it and drain as one batch,
    // B (its own (k, p) group, first) is held, so A sits in flight at
    // the pre-remove epoch while joiners join it; then an object is
    // removed and B released. A's group then fails `p <= len`, and every
    // joiner must get that same typed error.
    let db = clustered(300, 25);
    let (hold_c, hold_b) = (Arc::new(Gate::default()), Arc::new(Gate::default()));
    let distance = gated_l2(vec![Arc::clone(&hold_c), Arc::clone(&hold_b)]);
    let api = Arc::new(concurrent_api_with(&db, distance));
    let batcher = Batcher::start(Arc::clone(&api), one_worker());
    let n = api.len();
    let queries = clustered(3, 26);
    let (c, b, a) = (&queries[0], &queries[1], &queries[2]);
    hold_c.arm(c, false);
    hold_b.arm(b, false);

    let c_answer = batcher.submit(c.clone(), 3, 25).unwrap();
    hold_c.wait_entered();
    let b_answer = batcher.submit(b.clone(), 3, 25).unwrap();
    let a_answer = batcher.submit(a.clone(), 3, n).unwrap();
    hold_c.open();
    hold_b.wait_entered();
    assert_eq!(batcher.stats().queries, 3, "B and A drained together");
    let joiners: Vec<Ticket> = (0..4)
        .map(|_| batcher.submit(a.clone(), 3, n).unwrap())
        .collect();
    assert_eq!(batcher.stats().deduped, 4, "every joiner joins A");
    let removed = api.try_remove(0).unwrap();
    assert_eq!(removed.len, n - 1);
    hold_b.open();

    assert!(answer(c_answer).is_ok());
    assert!(answer(b_answer).is_ok());
    let expected = Err(RequestError::Query(QueryError::BadP {
        k: 3,
        p: n,
        max: n - 1,
    }));
    assert_eq!(answer(a_answer), expected);
    for joiner in joiners {
        assert_eq!(answer(joiner), expected);
    }
}

#[test]
fn a_query_admitted_after_an_insert_never_joins_an_older_execution() {
    let db = clustered(300, 27);
    let gate = Arc::new(Gate::default());
    let api = Arc::new(concurrent_api_with(&db, gated_l2(vec![Arc::clone(&gate)])));
    let batcher = Batcher::start(Arc::clone(&api), one_worker());
    let (k, p) = (3, 25);
    let query = clustered(1, 28).remove(0);
    let before_insert = api.try_query(&query, k, p).unwrap();
    // A near-copy of the query (not bit-equal, so the gate lets its
    // embedding through) that becomes its nearest neighbor.
    let mut near = query.clone();
    near[0] += 1e-9;

    gate.arm(&query, false);
    let held = batcher.submit(query.clone(), k, p).unwrap();
    gate.wait_entered();
    let epoch = api.info().epoch.unwrap();
    let inserted = api.try_insert(near).unwrap();
    assert!(inserted.epoch > epoch);
    // Admitted after the insert returned: same key, newer epoch, so it
    // must queue for its own execution instead of joining.
    let later = batcher.submit(query.clone(), k, p).unwrap();
    assert_eq!(batcher.stats().deduped, 0);
    gate.open();

    assert_eq!(answer(held).unwrap(), before_insert);
    let after_insert = answer(later).unwrap();
    assert_eq!(after_insert, api.try_query(&query, k, p).unwrap());
    assert_eq!(after_insert.neighbors[0], inserted.id);
    assert_ne!(after_insert, before_insert);
    assert_eq!(batcher.stats().deduped, 0);
}
