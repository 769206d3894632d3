//! # qse-serve
//!
//! The query service front end of the Query-Sensitive Embeddings
//! reproduction: what turns an index (or a snapshot file) into a served
//! endpoint.
//!
//! * [`api`] — [`QseApi`], the transport-neutral facade over the index
//!   types (static / cluster-routed / dynamic / concurrent, any store
//!   precision), loadable straight from a snapshot through the single
//!   [`QseApi::load`] entry point; every entry point returns typed
//!   [`QueryError`](qse_retrieval::QueryError)s instead of unwinding.
//!   Over a concurrent index the facade is also the mutation path
//!   ([`QseApi::try_insert`] / [`QseApi::try_remove`]), with reads
//!   draining against pinned epoch snapshots throughout.
//! * [`batcher`] — the admission batcher, work-conserving: an idle
//!   worker answers a lone query at once, and only the backlog that
//!   queues behind busy workers is batched through the tiled pipelines.
//!   Equal queries share one execution, within a batch and by joining an
//!   equal query already in flight at the same epoch. Per-query answers
//!   are bit-identical to sequential retrieval, whatever the arrival
//!   interleaving.
//! * [`http`] — a std-only HTTP/1.1 server on [`std::net::TcpListener`]
//!   (the build environment has no crates-registry access, matching the
//!   `crates/compat` philosophy): a thread-per-connection accept loop
//!   feeding the shared batcher.
//! * [`wire`] — the JSON request/response shapes over the workspace's
//!   dependency-free codec.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod batcher;
pub mod http;
pub mod wire;

pub use api::{
    IndexInfo, LoadOptions, MutationReport, QseApi, QueryResult, ServeError, SnapshotSource,
};
pub use batcher::{Batcher, BatcherConfig, BatcherStats, RequestError, Ticket};
pub use http::{QseServer, ServeConfig};
