//! # qse-distance
//!
//! Distance measures and distance accounting for the reproduction of
//! *Query-Sensitive Embeddings* (Athitsos, Hadjieleftheriou, Kollios,
//! Sclaroff — SIGMOD 2005).
//!
//! The paper studies approximate nearest-neighbor retrieval in spaces whose
//! exact distance measure `DX` is computationally expensive, non-Euclidean
//! and often non-metric. Everything downstream (embeddings, BoostMap
//! training, filter-and-refine retrieval) only touches data through the
//! [`DistanceMeasure`] trait defined here, mirroring the paper's
//! domain-independence claim: *"any X and DX can be plugged into the
//! formulations described in this paper"* (Section 3).
//!
//! ## Provided distance measures
//!
//! * [`vector`] — `Lp` norms, the plain and *weighted* `L1` distances used to
//!   compare embedded vectors (Section 5.4), the flat row-major
//!   [`FlatVectors`] store, and the filter step's one scan surface:
//!   [`vector::filter_scan`] scores one query against every stored row,
//!   [`vector::filter_scan_range`] one sequential tile of a query batch,
//!   [`vector::filter_scan_batch`] a whole batch in parallel tiles, each
//!   under shared or per-query [`QueryWeights`]. The store is generic over
//!   its element precision ([`FilterElem`]: exact `f64`, compact `f32`, or
//!   `u8` scalar quantization — [`FlatVectors`] is the `f64` default), and
//!   each backend supplies its own scan kernel through the
//!   [`FilterElem::scan_filter`] / [`FilterElem::scan_filter_range`]
//!   hooks: the `f64`/`f32` decode path, bit-identical to the row-by-row
//!   weighted L1, or for `u8` the in-domain integer SAD kernel of [`sad`].
//!   Tile layout and bit-identity guarantees are documented in the
//!   [`vector`] module.
//! * [`sad`] — the in-domain integer scoring path for the `u8` store:
//!   quantize the query onto the store's grid, accumulate the weighted
//!   sum of absolute `u8` differences in widened integer arithmetic, and
//!   apply one per-query rescale — no per-value dequantization in the
//!   scan, which is what makes the 8×-smaller store also the *fastest*
//!   one on compute-bound hosts.
//! * [`dtw`] — constrained (Sakoe–Chiba band) Dynamic Time Warping over
//!   multi-dimensional sequences, the exact distance of the time-series
//!   experiments (Section 9).
//! * [`shape_context`] + [`hungarian`] — the Shape Context Distance of
//!   Belongie et al. used for the MNIST experiments: log-polar shape-context
//!   descriptors, χ² matching costs, optimal bipartite matching via the
//!   Hungarian algorithm and an alignment cost term.
//! * [`edit`] — Levenshtein edit distance over symbol sequences (mentioned in
//!   the introduction as a canonical expensive distance).
//! * [`kl`] — Kullback–Leibler and symmetrised KL divergences over discrete
//!   distributions.
//! * [`chamfer`] — the (directed and symmetric) chamfer distance between 2-D
//!   point sets.
//!
//! ## Accounting
//!
//! The paper's figure of merit is the **number of exact distance
//! computations per query**. [`counting::CountingDistance`] decorates any
//! measure with an atomic call counter so every number reported by the
//! evaluation harness is measured, not estimated. [`matrix::DistanceMatrix`]
//! precomputes all-pairs distances in parallel for the training stage
//! (Section 7).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chamfer;
pub mod counting;
pub mod dtw;
pub mod edit;
pub mod hungarian;
pub mod kl;
pub mod lb_keogh;
pub mod matrix;
pub mod mmap;
pub mod sad;
pub mod shape_context;
pub mod storage;
pub mod traits;
pub mod vector;

pub use counting::CountingDistance;
pub use dtw::{ConstrainedDtw, TimeSeries};
pub use matrix::DistanceMatrix;
pub use mmap::{MapError, MapRegion};
pub use sad::SadQuery;
pub use shape_context::{PointSet, ShapeContextDistance};
pub use storage::{MappedSlice, MappedWords, Storage};
pub use traits::{DistanceMeasure, MetricProperties};
pub use vector::{
    FilterElem, FlatStore, FlatVectors, LpDistance, QuantParams, QueryWeights, WeightedL1,
};
