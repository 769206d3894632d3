//! A minimal keep-alive HTTP/1.1 client, the two load generators — open
//! loop (sends on a schedule, latency timed from the scheduled send) and
//! closed loop (each connection sends its next request when the previous
//! answer is back) — and the rounds every workload's run is made of.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{median, ms, quantile, Metrics, Tracer};

/// One keep-alive connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Send one pre-rendered request and read the answer: status and body.
    pub fn send(&mut self, request: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        self.writer.write_all(request)?;
        let mut status = 0u16;
        let mut length = 0usize;
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let text = line.trim_end();
            if text.is_empty() {
                break;
            }
            if status == 0 {
                status = text
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
            } else if let Some(v) = text.strip_prefix("Content-Length:") {
                length = v.trim().parse().unwrap_or(0);
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

/// Render a request with a JSON body (`None`: a bodiless GET).
pub fn render(method: &str, path: &str, body: Option<&str>) -> Vec<u8> {
    match body {
        Some(body) => format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
        None => format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n\r\n"),
    }
    .into_bytes()
}

/// A request the generator sends and the exact answer it must get back
/// (either of two, where a concurrent writer can change the answer).
#[derive(Clone, Copy)]
pub struct Job<'a> {
    pub request: &'a [u8],
    pub expected: &'a [u8],
    pub alternative: &'a [u8],
}

/// What happened to one request, as offsets from the phase start.
#[derive(Clone, Copy)]
pub struct Sent {
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    pub ok: bool,
}

impl Sent {
    /// Latency from the scheduled send (open loop) or the actual send
    /// (closed loop, where `due == sent`).
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }
}

fn exchange(conn: &mut Option<Conn>, addr: SocketAddr, job: &Job<'_>) -> bool {
    if conn.is_none() {
        *conn = Conn::open(addr).ok();
    }
    let Some(c) = conn.as_mut() else {
        return false;
    };
    match c.send(job.request) {
        Ok((200, body)) => body == job.expected || body == job.alternative,
        Ok(_) => false,
        Err(_) => {
            *conn = None;
            false
        }
    }
}

/// Poisson arrival offsets at `rate` per second, for `count` requests.
pub fn poisson_schedule(rate: f64, count: usize, seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at = 0.0;
    (0..count)
        .map(|_| {
            at += -(1.0 - rng.next_f64()).ln() / rate;
            Duration::from_secs_f64(at)
        })
        .collect()
}

/// Open loop: request `i` is due at `schedule[i]` and goes out on
/// connection `i % conns` as soon as that connection is free. Returns one
/// record per request, in request order.
pub fn open_loop(
    addr: SocketAddr,
    conns: usize,
    schedule: &[Duration],
    jobs: &[Job<'_>],
) -> Vec<Sent> {
    assert_eq!(schedule.len(), jobs.len());
    let start = Instant::now();
    let mut records = vec![None; jobs.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let mut conn = Conn::open(addr).ok();
                    let mut out = Vec::new();
                    for i in (c..jobs.len()).step_by(conns) {
                        let due = schedule[i];
                        if let Some(wait) = due.checked_sub(start.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let sent = start.elapsed();
                        let ok = exchange(&mut conn, addr, &jobs[i]);
                        out.push((
                            i,
                            Sent {
                                due,
                                sent,
                                done: start.elapsed(),
                                ok,
                            },
                        ));
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            for (i, sent) in handle.join().expect("open-loop client thread") {
                records[i] = Some(sent);
            }
        }
    });
    records
        .into_iter()
        .map(|r| r.expect("every request recorded"))
        .collect()
}

/// A saturating phase: its records and the wall time it took.
pub struct Closed {
    pub records: Vec<Sent>,
    pub wall: Duration,
}

impl Closed {
    /// Run `phase` and account its wall time.
    pub fn measure(phase: impl FnOnce() -> Vec<Sent>) -> Self {
        let start = Instant::now();
        let records = phase();
        Self {
            records,
            wall: start.elapsed(),
        }
    }

    /// Requests answered correctly (at least 1, so rates stay finite when
    /// every answer failed the gate and `correct` already reads false).
    fn answered(&self) -> f64 {
        answered(&self.records)
    }
}

fn answered<'a>(records: impl IntoIterator<Item = &'a Sent>) -> f64 {
    records.into_iter().filter(|r| r.ok).count().max(1) as f64
}

/// Closed loop: `conns` connections each send back to back for
/// `duration`, connection `c` cycling through jobs `c, c + conns, ...`.
pub fn closed_loop(addr: SocketAddr, conns: usize, duration: Duration, jobs: &[Job<'_>]) -> Closed {
    Closed::measure(|| {
        let start = Instant::now();
        let mut records = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..conns)
                .map(|c| {
                    scope.spawn(move || {
                        let mut conn = Conn::open(addr).ok();
                        let mut out = Vec::new();
                        let mut i = c;
                        while start.elapsed() < duration {
                            let sent = start.elapsed();
                            let ok = exchange(&mut conn, addr, &jobs[i % jobs.len()]);
                            out.push(Sent {
                                due: sent,
                                sent,
                                done: start.elapsed(),
                                ok,
                            });
                            i += conns;
                        }
                        out
                    })
                })
                .collect();
            for handle in handles {
                records.extend(handle.join().expect("closed-loop client thread"));
            }
        });
        records
    })
}

/// Rounds per run: every workload repeats its phases this many times and
/// reports the median over rounds, so one stalled stretch of a run moves
/// one round, not the result.
pub const ROUNDS: usize = 8;
/// Shares of a round's time: light phase, heavy phase, closed loop.
pub const LIGHT_SHARE: f64 = 0.4;
pub const HEAVY_SHARE: f64 = 0.4;
pub const CLOSED_SHARE: f64 = 0.2;

/// The records of one round of a load-driven workload.
pub struct Round {
    pub light: Vec<Sent>,
    pub heavy: Vec<Sent>,
    /// The saturating phase: a closed loop, or batches on the pool.
    pub closed: Closed,
    /// CPU time the whole process spent in the three phases, from
    /// [`crate::common::process_cpu`] read before the first and after the last.
    pub cpu: Duration,
}

/// The `q`-quantile of a phase's latencies, in ms.
fn latency(records: &[Sent], q: f64) -> f64 {
    quantile(
        &records.iter().map(|r| ms(r.latency())).collect::<Vec<_>>(),
        q,
    )
}

/// A statistic per round, then the median over rounds.
fn per_round(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

impl Round {
    pub fn records(&self) -> impl Iterator<Item = &Sent> {
        self.light
            .iter()
            .chain(&self.heavy)
            .chain(&self.closed.records)
    }

    /// The end-to-end latency metrics.
    pub fn report(rounds: &[Round], metrics: &mut Metrics) {
        metrics.set(
            "light.query_p50_ms",
            per_round(rounds, |r| latency(&r.light, 0.5)),
        );
        metrics.set(
            "heavy.query_p50_ms",
            per_round(rounds, |r| latency(&r.heavy, 0.5)),
        );
    }

    /// Client-side spans of every round (a `loadgen.request` span from
    /// the scheduled send to the answer, with the `loadgen.send` it
    /// caused; offsets from each phase's own start) and the load
    /// generator's own figures: the p90 tails, how late sends ran behind
    /// schedule, the closed-loop rate and the process CPU per query.
    pub fn trace(rounds: &[Round], tracer: &mut Tracer, metrics: &mut Metrics) {
        for (id, r) in rounds.iter().flat_map(Round::records).enumerate() {
            let id = (1 << 32) + id as u64;
            let root = tracer.push(id, "loadgen.request", None, r.due, r.done);
            tracer.push(id, "loadgen.send", Some(root), r.sent, r.done);
        }
        metrics.set(
            "loadgen.light_p90_ms",
            per_round(rounds, |r| latency(&r.light, 0.9)),
        );
        metrics.set(
            "loadgen.heavy_p90_ms",
            per_round(rounds, |r| latency(&r.heavy, 0.9)),
        );
        let lag: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.light.iter().chain(&r.heavy))
            .map(|r| ms(r.sent.saturating_sub(r.due)))
            .collect();
        metrics.set("loadgen.lag_p99_ms", quantile(&lag, 0.99));
        metrics.set(
            "loadgen.closed_qps",
            per_round(rounds, |r| {
                r.closed.answered() / r.closed.wall.as_secs_f64()
            }),
        );
        // Pooled over the whole run, not a median over rounds: a round
        // holds only about a hundred 10 ms ticks, and the host's speed
        // drifts from round to round.
        let cpu: Duration = rounds.iter().map(|r| r.cpu).sum();
        metrics.set(
            "loadgen.cpu_ms_per_query",
            ms(cpu) / answered(rounds.iter().flat_map(Round::records)),
        );
    }
}
