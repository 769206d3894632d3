//! The admission batcher: single queries from any number of threads,
//! executed on a small worker pool with **work-conserving admission**.
//!
//! No request ever waits for company. An idle worker takes everything
//! queued — up to [`BatcherConfig::max_batch`] requests — the moment it
//! sees it, so a lone request on an idle service goes straight to the
//! pipeline. Batches form only from the backlog that builds up while every
//! worker is busy, which is exactly when the batched pipelines (the Q×N
//! tiled kernel, the grouped-by-cell routed scan) pay for themselves; a
//! one-request batch runs the index's single-query path.
//!
//! Two exact dedupes keep equal queries from running twice, both keyed on
//! the query's exact `f64` bits plus `(k, p)`:
//!
//! * **Within a batch.** A drained batch is grouped by `(k, p)` (the
//!   batched pipelines take one `k`/`p` per call) and equal queries in a
//!   group run once and share the result — the batch-global form of the
//!   per-tile duplicate memo inside `tiled_query_pipeline`.
//! * **In flight.** A request whose key equals one a worker is already
//!   executing joins that execution and shares its result, instead of
//!   queueing behind it. The join is allowed only when the facade's epoch
//!   (as in [`QseApi::info`]) at the joiner's admission equals the epoch
//!   the worker read before dispatching; epochs only grow, so the
//!   execution is answered from an epoch at or after the joiner's
//!   arrival, and a read admitted after a mutation returned never gets a
//!   pre-mutation answer. Immutable backends have no epoch and always
//!   qualify.
//!
//! Per-query results are **bit-identical to a sequential
//! [`QseApi::try_query`] per request**, whatever the arrival
//! interleaving, worker count or duplicate scatter: the batched pipelines
//! pin batch == sequential, and both dedupes only ever reuse a result
//! across bit-equal inputs. The workspace `admission_batching` test
//! asserts exactly this, joiners included.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use qse_retrieval::QueryError;

use crate::api::{QseApi, QueryResult};

/// What a submitted request can fail with: a typed validation error, or
/// — the armor-plated last resort — a panic caught inside a worker so the
/// service keeps serving.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// The request was rejected by validation or by the index.
    Query(QueryError),
    /// A worker panicked while executing the batch; the message is the
    /// panic payload. The worker survives and keeps draining.
    Internal(String),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Query(e) => write!(f, "{e}"),
            Self::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<QueryError> for RequestError {
    fn from(e: QueryError) -> Self {
        Self::Query(e)
    }
}

/// Knobs of the worker pool. There is no admission window: batches form
/// only from the backlog.
#[derive(Debug, Clone, Copy)]
pub struct BatcherConfig {
    /// Hard cap on requests one worker takes from the queue at once.
    pub max_batch: usize,
    /// Worker threads draining the queue. One worker executes one batch
    /// at a time; more workers answer more lone requests at once.
    pub workers: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            workers: 2,
        }
    }
}

/// Counters the batcher keeps, for health reporting and for the bench
/// suite's dedupe/batching effectiveness lines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatcherStats {
    /// Batches executed.
    pub batches: u64,
    /// Requests answered by an execution: admitted into a batch, or
    /// joined to one in flight.
    pub queries: u64,
    /// Requests answered from another request's result — by the
    /// within-batch dedupe or by joining an in-flight execution — that
    /// never ran the pipeline themselves. Counted in `queries` too, so
    /// `deduped <= queries`.
    pub deduped: u64,
}

#[derive(Default)]
struct StatCells {
    batches: AtomicU64,
    queries: AtomicU64,
    deduped: AtomicU64,
}

/// What equal answers are recognised by: the query's exact `f64` bits
/// and `(k, p)`. Bits are strictly narrower than the pipelines' `f64`
/// equality (they tell -0.0 from 0.0 and never merge NaN payloads), so
/// sharing a result between equal keys is always sound.
type Key = (Vec<u64>, usize, usize);

type Reply = mpsc::Sender<Result<QueryResult, RequestError>>;

struct Pending {
    query: Vec<f64>,
    key: Key,
    reply: Reply,
}

/// A key a worker is executing, open to joiners until it finishes.
struct InFlight {
    /// The facade epoch the worker read before dispatching.
    epoch: Option<u64>,
    /// Requests that joined after dispatch.
    joiners: Vec<Reply>,
}

struct QueueState {
    queue: VecDeque<Pending>,
    in_flight: HashMap<Key, InFlight>,
    shutdown: bool,
}

struct Shared {
    api: Arc<QseApi>,
    state: Mutex<QueueState>,
    arrived: Condvar,
    config: BatcherConfig,
    stats: StatCells,
}

/// The admission batcher: submit single queries from any number of
/// threads; idle workers answer them at once, busy ones in batches drawn
/// from the backlog. Dropping the batcher drains the queue and joins the
/// workers.
pub struct Batcher {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Batcher {
    /// Start `config.workers` worker threads over `api`.
    pub fn start(api: Arc<QseApi>, config: BatcherConfig) -> Self {
        let config = BatcherConfig {
            max_batch: config.max_batch.max(1),
            workers: config.workers.max(1),
        };
        let shared = Arc::new(Shared {
            api,
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                in_flight: HashMap::new(),
                shutdown: false,
            }),
            arrived: Condvar::new(),
            config,
            stats: StatCells::default(),
        });
        let workers = (0..config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Self { shared, workers }
    }

    /// The facade the workers execute against.
    pub fn api(&self) -> &Arc<QseApi> {
        &self.shared.api
    }

    /// Admit one query without waiting for its answer: it joins an equal
    /// query already executing at the current epoch, or else goes to the
    /// back of the queue, before this returns. [`Ticket::wait`] blocks
    /// for the answer, so one thread can have several requests in flight
    /// in a known admission order.
    ///
    /// Validation runs synchronously at admission — a malformed request
    /// is rejected here, before it can occupy a batch slot, and the
    /// worker threads only ever see requests the index accepts.
    ///
    /// # Errors
    /// [`RequestError::Query`] for any [`QseApi::validate`] rejection,
    /// [`RequestError::Internal`] once the batcher is shutting down.
    pub fn submit(&self, query: Vec<f64>, k: usize, p: usize) -> Result<Ticket, RequestError> {
        self.shared.api.validate(&query, k, p)?;
        let key = (query.iter().map(|x| x.to_bits()).collect(), k, p);
        let (reply, answer) = mpsc::channel();
        let mut state = lock(&self.shared.state);
        if state.shutdown {
            return Err(RequestError::Internal("the batcher is shut down".into()));
        }
        match state.in_flight.get_mut(&key) {
            Some(flight) if flight.epoch == self.shared.api.epoch() => {
                flight.joiners.push(reply);
                self.shared.stats.queries.fetch_add(1, Ordering::Relaxed);
                self.shared.stats.deduped.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                state.queue.push_back(Pending { query, key, reply });
                self.shared.arrived.notify_one();
            }
        }
        Ok(Ticket(answer))
    }

    /// Submit one query and block until it is answered:
    /// [`Self::submit`], then [`Ticket::wait`].
    ///
    /// # Errors
    /// As [`Self::submit`] and [`Ticket::wait`].
    pub fn query(&self, query: Vec<f64>, k: usize, p: usize) -> Result<QueryResult, RequestError> {
        self.submit(query, k, p)?.wait()
    }

    /// A snapshot of the batching counters.
    pub fn stats(&self) -> BatcherStats {
        BatcherStats {
            batches: self.shared.stats.batches.load(Ordering::Relaxed),
            queries: self.shared.stats.queries.load(Ordering::Relaxed),
            deduped: self.shared.stats.deduped.load(Ordering::Relaxed),
        }
    }
}

/// An admitted request's answer, still to come (see [`Batcher::submit`]).
pub struct Ticket(mpsc::Receiver<Result<QueryResult, RequestError>>);

impl Ticket {
    /// Block until the request is answered.
    ///
    /// # Errors
    /// [`RequestError::Query`] for an index error of the execution
    /// answering it, [`RequestError::Internal`] if that execution
    /// panicked.
    pub fn wait(self) -> Result<QueryResult, RequestError> {
        self.0.recv().unwrap_or_else(|_| {
            Err(RequestError::Internal(
                "the batch executor dropped the request".into(),
            ))
        })
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.arrived.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn lock(m: &Mutex<QueueState>) -> std::sync::MutexGuard<'_, QueueState> {
    // A worker panic inside the critical section is already converted to
    // a response by catch_unwind; a poisoned queue lock carries no
    // broken invariant worth dying for.
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One distinct key of a drained batch and everyone waiting on it.
struct Slot {
    key: Key,
    query: Vec<f64>,
    replies: Vec<Reply>,
    /// Whether this slot opened the key's in-flight entry (and so closes
    /// it). A key another worker already has in flight stays closed to
    /// joiners here.
    joinable: bool,
}

fn worker_loop(shared: &Shared) {
    loop {
        let slots = {
            let mut state = lock(&shared.state);
            // Sleep until something arrives (or shutdown drains us out),
            // then take the whole backlog up to max_batch — no waiting.
            while state.queue.is_empty() {
                if state.shutdown {
                    return;
                }
                state = shared
                    .arrived
                    .wait(state)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
            let take = state.queue.len().min(shared.config.max_batch);
            let batch: Vec<Pending> = state.queue.drain(..take).collect();
            open_batch(shared, &mut state, batch)
        };
        execute_batch(shared, slots);
    }
}

/// Collapse a drained batch onto its distinct keys, in first-seen order,
/// and open each key to joiners — under the lock that drained the batch,
/// stamped with the epoch read before dispatch.
fn open_batch(shared: &Shared, state: &mut QueueState, batch: Vec<Pending>) -> Vec<Slot> {
    let admitted = batch.len();
    shared.stats.batches.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .queries
        .fetch_add(admitted as u64, Ordering::Relaxed);
    let epoch = shared.api.epoch();
    let mut slots: Vec<Slot> = Vec::with_capacity(admitted);
    let mut slot_of: HashMap<Key, usize> = HashMap::with_capacity(admitted);
    for Pending { query, key, reply } in batch {
        if let Some(&s) = slot_of.get(&key) {
            slots[s].replies.push(reply);
            continue;
        }
        let joinable = !state.in_flight.contains_key(&key);
        if joinable {
            let flight = InFlight {
                epoch,
                joiners: Vec::new(),
            };
            state.in_flight.insert(key.clone(), flight);
        }
        slot_of.insert(key.clone(), slots.len());
        slots.push(Slot {
            key,
            query,
            replies: vec![reply],
            joinable,
        });
    }
    shared
        .stats
        .deduped
        .fetch_add((admitted - slots.len()) as u64, Ordering::Relaxed);
    slots
}

/// Run one drained batch: each `(k, p)` group of distinct queries goes
/// through the batched pipeline once (groups in first-seen order), and
/// every requester and joiner of each key gets its answer.
fn execute_batch(shared: &Shared, mut slots: Vec<Slot>) {
    while let Some(first) = slots.first() {
        let (k, p) = (first.key.1, first.key.2);
        let (mut group, rest): (Vec<Slot>, Vec<Slot>) = slots
            .into_iter()
            .partition(|slot| slot.key.1 == k && slot.key.2 == p);
        slots = rest;
        let queries: Vec<Vec<f64>> = group
            .iter_mut()
            .map(|slot| std::mem::take(&mut slot.query))
            .collect();
        // Admission already validated every request, so errors here come
        // only from a lost race with a mutation — but they still come
        // back typed, and a panic in the pipeline is caught so the
        // worker (and the service) lives.
        let outcome = match catch_unwind(AssertUnwindSafe(|| {
            shared.api.try_query_batch(&queries, k, p)
        })) {
            Ok(result) => result.map_err(RequestError::Query),
            Err(payload) => Err(panic_message(payload.as_ref())),
        };
        answer_group(shared, group, &outcome);
    }
}

/// Close the group's in-flight entries, then send every requester and
/// joiner of each slot its answer (or the group's error). Joiners are
/// detached under the queue lock, so none can join after the answers go
/// out.
fn answer_group(
    shared: &Shared,
    mut group: Vec<Slot>,
    outcome: &Result<Vec<QueryResult>, RequestError>,
) {
    {
        let mut state = lock(&shared.state);
        for slot in group.iter_mut().filter(|slot| slot.joinable) {
            if let Some(flight) = state.in_flight.remove(&slot.key) {
                slot.replies.extend(flight.joiners);
            }
        }
    }
    for (s, slot) in group.iter().enumerate() {
        let answer = match outcome {
            Ok(results) => results.get(s).cloned().ok_or_else(|| {
                RequestError::Internal("the pipeline returned too few results".into())
            }),
            Err(e) => Err(e.clone()),
        };
        for reply in &slot.replies {
            let _ = reply.send(answer.clone());
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> RequestError {
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    };
    RequestError::Internal(msg)
}
