//! What every workload shares: command-line arguments, order statistics,
//! the span recorder of the traced run, the result line and the
//! catalogue of metric names it must carry.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// End-to-end metrics: every workload reports all of them with tracing
/// off. Kept in step with `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rss_mb", "MB"),
    ("light.query_p50_ms", "ms"),
    ("heavy.query_p50_ms", "ms"),
    ("recall_at_k", "ratio"),
    ("dist_per_query", "count"),
];

/// Per-layer metrics: every workload reports all of them in the traced
/// run, `0` for a layer its requests never reach. Kept in step with
/// `per_layer` in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.parse_us", "us"),
    ("wire.serialize_us", "us"),
    ("http.query_us", "us"),
    ("http.roundtrip_us", "us"),
    ("http.overhead_us", "us"),
    ("http.write_p50_ms", "ms"),
    ("http.write_p99_ms", "ms"),
    ("batcher.query_us", "us"),
    ("batcher.wait_us", "us"),
    ("batcher.mean_batch", "count"),
    ("batcher.dedupe_ratio", "ratio"),
    ("api.try_query_us", "us"),
    ("api.detour_us", "us"),
    ("api.recomputed_dist", "count"),
    ("routed.retrieve_us", "us"),
    ("routed.retrieve_p99_us", "us"),
    ("routed.route_us", "us"),
    ("routed.rows_scanned", "count"),
    ("routed.batch_us_per_query", "us"),
    ("filter_refine.retrieve_us", "us"),
    ("filter_refine.filter_us", "us"),
    ("filter_refine.refine_us", "us"),
    ("filter_refine.batch_us_per_query", "us"),
    ("concurrent.retrieve_us", "us"),
    ("concurrent.insert_us", "us"),
    ("concurrent.remove_us", "us"),
    ("concurrent.segments", "count"),
    ("concurrent.garbage_rows", "count"),
    ("snapshot.save_ms", "ms"),
    ("snapshot.load_mmap_ms", "ms"),
    ("snapshot.load_owned_ms", "ms"),
    ("model.embed_us", "us"),
    ("model.embed_dist", "count"),
    ("trainer.train_s", "s"),
    ("index.build_s", "s"),
    ("distance.exact_us", "us"),
    ("kernel.scan_u8_ns_per_row", "ns"),
    ("kernel.scan_f64_ns_per_row", "ns"),
    ("kernel.scan_batch_ns_per_row", "ns"),
    ("loadgen.light_p90_ms", "ms"),
    ("loadgen.heavy_p90_ms", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.closed_qps", "1/s"),
    ("loadgen.cpu_ms_per_query", "ms"),
    ("reconcile.stage_sum_us", "us"),
    ("reconcile.unaccounted_us", "us"),
];

/// Parsed command line: `--workload NAME --seed N --seconds S --trace 0|1`.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse() -> Result<Self, String> {
        let mut workload = None;
        let mut seed = 1;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
                "--seconds" => {
                    seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {value}"))?
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// A derived seed for one input stream of a workload, so the streams of
/// one `--seed` are independent of each other.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    // SplitMix64 finalizer over the pair.
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `q`-quantile (nearest rank on the sorted sample). `0` for an
/// empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// CPU time the whole process has used (`utime + stime` from
/// `/proc/self/stat`, in 10 ms clock ticks). The kernel accounts time the
/// hypervisor gave to another guest as steal, not to the process, so on a
/// shared host this is the work done, not the time it took.
pub fn process_cpu() -> Duration {
    const TICK_MS: u64 = 10;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| -> u64 {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .expect("utime/stime in /proc/self/stat")
    };
    Duration::from_millis((ticks(11) + ticks(12)) * TICK_MS)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The benchmark's working directory inside the checkout (snapshots and
/// span dumps), created on first use.
pub fn work_dir() -> PathBuf {
    let dir = PathBuf::from(".bench_build").join("perfbench");
    std::fs::create_dir_all(&dir).expect("create the benchmark working directory");
    dir
}

/// Timings of one set-up, in seconds (`save` is 0 where nothing is saved).
#[derive(Default)]
pub struct SetupTimes {
    pub total: f64,
    pub train: f64,
    pub build: f64,
    pub save: f64,
}

impl SetupTimes {
    /// `setup_s` end to end; the trainer, build and save layers traced.
    pub fn report(times: &[SetupTimes], trace: bool, metrics: &mut Metrics) {
        let med = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
        if trace {
            metrics.set("trainer.train_s", med(|t| t.train));
            metrics.set("index.build_s", med(|t| t.build));
            metrics.set("snapshot.save_ms", med(|t| t.save) * 1e3);
        } else {
            metrics.set("setup_s", med(|t| t.total));
        }
    }
}

/// Correctness tally: requests attempted and requests that failed or
/// answered differently from the in-process reference.
#[derive(Default)]
pub struct Tally {
    pub attempted: AtomicU64,
    pub failed: AtomicU64,
}

impl Tally {
    pub fn record(&self, ok: bool) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One traced interval. Spans of one request share `request`; `parent`
/// indexes the span (in the same recorder) that caused this one.
#[derive(Clone)]
pub struct Span {
    pub request: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// In-memory span recorder of the traced run, written out once at the
/// end. Load-generator records become spans after their phase, so the
/// client threads never share it.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span and return its result.
    pub fn span<R>(
        &mut self,
        request: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.origin.elapsed();
        let out = std::hint::black_box(f());
        self.push(request, name, parent, start, self.origin.elapsed());
        out
    }

    /// Record an interval measured elsewhere (offsets from the origin).
    pub fn push(
        &mut self,
        request: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Duration,
        end: Duration,
    ) -> usize {
        self.spans.push(Span {
            request,
            name,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| us(s.end.saturating_sub(s.start)))
            .collect()
    }

    pub fn p50_us(&self, name: &str) -> f64 {
        median(&self.durations_us(name))
    }

    /// Write every span as one JSON line to the working directory; a
    /// span's `parent` is the `span` number of the span that caused it.
    pub fn dump(&self, workload: &str) {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"span":{i},"request":{},"name":"{}","parent":{},"start_ns":{},"end_ns":{}}}"#,
                s.request,
                s.name,
                parent,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        let path = work_dir().join(format!("spans-{workload}.jsonl"));
        if let Err(e) = std::fs::write(&path, out) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
}

/// The metrics of one run, checked against the catalogue before printing.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Print the result line: the catalogue for this mode, in order, each
    /// with its unit. A per-layer metric the workload never measured reads
    /// `0` (its requests never reach that layer). Panics (non-zero exit,
    /// no result) on a missing end-to-end metric, an unknown name or a
    /// non-finite value.
    pub fn print(&self, trace: bool, tally: &Tally) {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        for name in self.values.keys() {
            assert!(
                catalogue.iter().any(|(n, _)| n == name),
                "metric {name} is not in the catalogue"
            );
        }
        let mut body = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(&value) => value,
                None if trace => 0.0,
                None => panic!("metric {name} was not measured"),
            };
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                body,
                r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#
            );
        }
        let attempted = tally.attempted.load(Ordering::Relaxed);
        let failed = tally.failed.load(Ordering::Relaxed);
        assert!(attempted > 0, "the run attempted no request");
        println!(
            r#"{{"correct": {}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{body}}}}}"#,
            failed == 0
        );
    }
}
