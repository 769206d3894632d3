//! The repository benchmark: three workloads that cross the serving,
//! retrieval, model, distance and kernel layers of the workspace,
//! measured end to end (`--trace 0`) or layer by layer (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-routed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `serve-routed`, `retrieve-cdtw`, `churn-concurrent`. The
//! last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; every answer the
//! program gives during a run is checked against an in-process reference
//! computed before timing starts. `METRICS.md` maps each per-layer metric
//! to the end-to-end metric it should move.

mod churn;
mod client;
mod common;
mod probes;
mod retrieve_cdtw;
mod serve_routed;

use common::{Args, Tally};

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let tally = Tally::default();
    let metrics = match args.workload.as_str() {
        "serve-routed" => serve_routed::run(&args, &tally),
        "retrieve-cdtw" => retrieve_cdtw::run(&args, &tally),
        "churn-concurrent" => churn::run(&args, &tally),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    metrics.print(args.trace, &tally);
}
