//! Vector-space distances: `Lp` norms, the (query-sensitive) weighted `L1`
//! distance, the flat row-major vector store, and the **filter scan** —
//! the one operation of the paper's filter step, scoring
//! `D(q, x) = Σ_i w_i |q_i − x_i|` for one query, or a whole query batch,
//! against every stored row.
//!
//! ## Pluggable filter-store precision
//!
//! The filter step of filter-and-refine retrieval only has to produce a
//! *candidate set* — the refine step recomputes exact distances for every
//! candidate — so the stored database vectors do not need full `f64`
//! precision. [`FlatStore<E>`] is generic over a storage element
//! [`FilterElem`] with three backends:
//!
//! * **`f64`** (the default; [`FlatVectors`] is an alias for
//!   `FlatStore<f64>`) — exact, bit-identical to the historical store;
//! * **`f32`** — half the memory traffic, ~2⁻²⁴ relative rounding error per
//!   coordinate;
//! * **`u8`** — scalar quantization on a per-coordinate affine grid
//!   ([`QuantParams`]): construction fits, for every coordinate `j`, the
//!   range `[min_j, max_j]` of the input rows and stores each value as the
//!   nearest of 256 levels `min_j + scale_j · v` with
//!   `scale_j = (max_j − min_j) / 255` (`scale_j = 0` collapses constant
//!   coordinates to their exact value). Encoding clamps to the fitted
//!   range, so rows pushed later never wrap; the decode error of an
//!   in-range value is at most `scale_j / 2`, which bounds the filter-score
//!   error by `Σ_j w_j · scale_j / 2` (asserted by the workspace tests).
//!
//! Queries and weights always stay `f64`; only the database side of the
//! scan is compressed. Orthogonally to the element precision, the buffer
//! those elements live in is pluggable too ([`crate::storage::Storage`]):
//! heap-owned, or borrowed zero-copy out of an `mmap`ed snapshot file so
//! serving starts without deserializing the store — see [`FlatStore`] and
//! the `crate::storage` module docs.
//!
//! The paper compares the embeddings of two objects with an `L1` distance
//! (original BoostMap, FastMap) or with the *query-sensitive weighted* `L1`
//! distance `D_out` of Eq. 11, where per-coordinate weights depend on the
//! first (query) argument. The plain building blocks live here; the
//! query-sensitive weighting logic itself lives in `qse-core::model` because
//! it needs the trained splitters.
//!
//! ## One scan surface
//!
//! Three validated entry points front every filter scan in the workspace:
//! [`filter_scan`] (one query), [`filter_scan_range`] (one *sequential*
//! tile of a query batch, for callers that orchestrate their own fan-out)
//! and [`filter_scan_batch`] (a whole batch, tiles fanned out across the
//! persistent worker pool). Batch weights are a [`QueryWeights`]: one row
//! shared by every query, or one row per query (the query-sensitive
//! `D_out`). The entries check every shape, settle the degenerate ones
//! (empty range, empty store, dimensionality 0) and hand the rest to the
//! store backend's [`FilterElem::scan_filter`] /
//! [`FilterElem::scan_filter_range`] hooks, so each backend runs its own
//! kernel:
//!
//! * **`f64` / `f32`** — the *decode path*: walk the store one
//!   [`BLOCK_VALUES`]-value block at a time, decode it to `f64` (a
//!   zero-copy borrow for `f64`) and reduce every row with the canonical
//!   [`weighted_l1_row`]. Both the single-query body and the tile body are
//!   compiled twice (baseline and AVX2) and picked by cached runtime
//!   detection.
//! * **`u8`** — the in-domain integer weighted-SAD kernel of
//!   [`crate::sad`], which scores without decoding a single stored value.
//!
//! ## One canonical summation order
//!
//! Every floating-point weighted-L1 evaluation in the workspace —
//! [`WeightedL1::eval`] on a pair of slices, the decode-path scans, and
//! `EmbeddedQuery::distance_to` in `qse-core` — reduces coordinates through
//! [`weighted_l1_row`]: [`LANES`]-wide blocks feeding [`LANES`] independent
//! accumulators, combined pairwise, then the sequential remainder.
//! Floating-point addition is not associative, so sharing one order is what
//! makes the scans **bit-identical** to the row-by-row path and the batch
//! scans bit-identical to the single-query scan (asserted by the workspace
//! property tests), while the independent accumulators give the optimizer
//! license to vectorize.
//!
//! ## The Q×N tile layout
//!
//! A batch of `Q` queries against `N` database rows is computed in
//! two-level tiles: [`QUERY_TILE`] query rows × one cache-sized block of
//! database rows. The parallel batch scan hands each query tile a pass over
//! the database; within the tile, one block of rows is loaded once and
//! scanned by every query of the tile before the next block streams in —
//! so the database buffer streams through memory once per [`QUERY_TILE`]
//! queries instead of once per query. On the decode path, pairs of queries
//! additionally share every row load at the register level, each keeping
//! its own canonical accumulators. Scores land in a row-major `Q × N`
//! output (`out[q * N + i]` is query `q` against row `i`) and query tiles
//! write disjoint `out` ranges, so fanning tiles out across the worker
//! pool involves no thread-count-dependent reduction order.

use crate::mmap::MapRegion;
use crate::storage::{MappedSlice, Storage};
use crate::traits::{DistanceMeasure, MetricProperties};
use rayon::prelude::*;
use std::ops::Range;
use std::sync::Arc;

/// Reinterpret little-endian bytes as a borrowed `[T]` when the layout
/// allows it: little-endian host, whole number of elements, pointer
/// aligned for `T`. The backbone of [`FilterElem::elems_from_le_bytes`]
/// for the built-in backends, whose every bit pattern is a valid value.
///
/// # Safety (discharged here)
/// Only called with `T` ∈ {`f64`, `f32`, `u8`} — plain-old-data types for
/// which any byte pattern is a valid instance — and the alignment/length
/// checks above the `unsafe` block establish the layout requirements of
/// `from_raw_parts`.
fn reinterpret_le_bytes<T: Copy>(bytes: &[u8]) -> Option<&[T]> {
    if cfg!(not(target_endian = "little")) {
        return None;
    }
    let size = std::mem::size_of::<T>();
    if size == 0 || !bytes.len().is_multiple_of(size) {
        return None;
    }
    if !(bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<T>()) {
        return None;
    }
    // SAFETY: see the doc comment — POD element types, checked length
    // and alignment, lifetime tied to `bytes`.
    Some(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<T>(), bytes.len() / size) })
}

/// Dense `f64` vector type used throughout the workspace for embedded
/// objects.
pub type Vector = Vec<f64>;

/// Width of one coordinate block in the weighted-L1 kernel, and the number
/// of independent accumulators it carries. Four `f64` lanes fill a 256-bit
/// vector register; the independent accumulators break the loop-carried
/// addition dependency so the compiler can keep them in separate registers.
pub const LANES: usize = 4;

/// `Σ_i w_i |a_i − b_i|` in the workspace's canonical blocked order: full
/// [`LANES`]-wide blocks accumulate into [`LANES`] independent sums
/// (pairwise-combined at the end), the tail is added sequentially.
///
/// This is the single scalar routine behind [`WeightedL1::eval`], the
/// decode-path filter scans and `EmbeddedQuery::distance_to`, so all of
/// them agree bitwise.
///
/// The slices must share one length; full-length checking is left to the
/// callers (debug builds assert).
#[inline]
pub fn weighted_l1_row(weights: &[f64], a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(weights.len(), a.len(), "weight/vector length mismatch");
    debug_assert_eq!(weights.len(), b.len(), "weight/vector length mismatch");
    let mut acc = [0.0f64; LANES];
    let mut w_blocks = weights.chunks_exact(LANES);
    let mut a_blocks = a.chunks_exact(LANES);
    let mut b_blocks = b.chunks_exact(LANES);
    for ((w, x), y) in (&mut w_blocks).zip(&mut a_blocks).zip(&mut b_blocks) {
        for lane in 0..LANES {
            acc[lane] += w[lane] * (x[lane] - y[lane]).abs();
        }
    }
    let mut tail = 0.0;
    for ((w, x), y) in w_blocks
        .remainder()
        .iter()
        .zip(a_blocks.remainder())
        .zip(b_blocks.remainder())
    {
        tail += w * (x - y).abs();
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// A storage element of the flat filter store: how one `f64` coordinate is
/// kept in memory between indexing time and the filter scan.
///
/// The three provided backends are `f64` (exact — the default everywhere),
/// `f32` (rounded to single precision) and `u8` (scalar-quantized on a
/// per-coordinate affine grid, see [`QuantParams`] and the module docs).
/// Implementations come in encode/decode pairs around per-store
/// [`FilterElem::Params`] fitted at construction, plus the two filter-scan
/// hooks behind [`filter_scan`], [`filter_scan_range`] and
/// [`filter_scan_batch`]. The default hooks are the decode path (decode
/// one cache-sized block at a time into `f64` scratch and reduce it in the
/// canonical [`weighted_l1_row`] order); `u8` overrides both with the
/// integer SAD kernel of [`crate::sad`].
pub trait FilterElem: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static {
    /// Per-store decode parameters: the quantization grid for `u8`,
    /// zero-sized for the exact backends.
    type Params: Clone + Send + Sync + PartialEq + std::fmt::Debug;

    /// Human-readable backend name (`"f64"`, `"f32"`, `"u8"`), used in
    /// benchmark ids and reports.
    const NAME: &'static str;

    /// Bytes one stored coordinate occupies (the memory-traffic lever of
    /// the filter scan).
    const BYTES: usize = std::mem::size_of::<Self>();

    /// Default filter oversampling factor the retrieve paths adopt for
    /// this backend (the `with_p_scale` knob's starting value): `1.0` for
    /// the backends whose filter scores carry no (f64) or negligible
    /// (f32) quantization error, `2.0` for `u8` — whose in-domain filter
    /// path quantizes *both* sides of the scan, widening the score-error
    /// bound from the store-only `Σ_j w_j · scale_j / 2` to the two-sided
    /// `Σ_j w_j · scale_j` (see [`crate::sad`]), so keeping twice the
    /// candidates preserves the filter's effective selectivity.
    const DEFAULT_P_SCALE: f64 = 1.0;

    /// The single-query hook behind [`filter_scan`]: score `query` under
    /// `weights` against every row of `vectors` into `out`. The default is
    /// the decode path, bit-identical to [`weighted_l1_row`] on every
    /// decoded row; `u8` scores *in the storage domain* with the integer
    /// SAD kernel of [`crate::sad`], whose scores differ from the decoded
    /// rows' by the documented query-side quantization bound (refine's
    /// exact distances absorb the difference).
    ///
    /// Called only through [`filter_scan`], which has already checked
    /// every length and settled the degenerate shapes: the store holds
    /// at least one row and `dim() > 0`.
    fn scan_filter(weights: &[f64], query: &[f64], vectors: &FlatStore<Self>, out: &mut [f64]) {
        l1_flat_dispatch(weights, query, vectors, out);
    }

    /// The tile hook behind [`filter_scan_range`] and
    /// [`filter_scan_batch`]: score queries `start..end` of `queries`
    /// sequentially into a row-major `(end − start) × vectors.len()`
    /// tile. Default: the decode-path tile kernel; `u8`: the integer SAD
    /// tile. Scores equal [`Self::scan_filter`]'s for each query bit for
    /// bit.
    ///
    /// Called only through those entries, which have already checked
    /// every shape and settled the degenerate ones: the range and the
    /// store are non-empty and `dim() > 0`.
    fn scan_filter_range(
        weights: QueryWeights<'_>,
        queries: &FlatVectors,
        start: usize,
        end: usize,
        vectors: &FlatStore<Self>,
        out: &mut [f64],
    ) {
        l1_tile_range(weights, queries, start, end, vectors, out);
    }

    /// Stable one-byte identifier of this backend in the snapshot format
    /// (`1` = `f64`, `2` = `f32`, `3` = `u8`): a loader compares it against
    /// the tag baked into the snapshot header so bytes can never be decoded
    /// under the wrong element type (see `qse_retrieval::snapshot`).
    const SNAPSHOT_TAG: u8;

    /// Append the little-endian byte image of `elems` to `out` — exactly
    /// [`Self::BYTES`] bytes per element, in element order. Together with
    /// [`Self::elems_from_bytes`] this round-trips every stored value bit
    /// for bit (including non-finite floats), which is what makes a loaded
    /// store score-identical to the saved one.
    fn elems_to_bytes(elems: &[Self], out: &mut Vec<u8>);

    /// Decode a buffer written by [`Self::elems_to_bytes`]. Returns `None`
    /// when `bytes.len()` is not a multiple of [`Self::BYTES`] (a truncated
    /// or corrupt section), so loaders can fail with a typed error instead
    /// of panicking.
    fn elems_from_bytes(bytes: &[u8]) -> Option<Vec<Self>>;

    /// Append the byte image of `params` to `out`: empty for the exact
    /// backends (whose `Params` is zero-sized), the affine grid of
    /// [`QuantParams`] as little-endian `f64`s (`min` row then `scale`
    /// row) for `u8`.
    fn params_to_bytes(params: &Self::Params, out: &mut Vec<u8>);

    /// Decode parameters for a `dim`-dimensional store from bytes written
    /// by [`Self::params_to_bytes`]. Returns `None` when the byte length
    /// does not match what the backend requires for `dim` coordinates.
    fn params_from_bytes(dim: usize, bytes: &[u8]) -> Option<Self::Params>;

    /// Parameters for a store built empty (no rows to fit against).
    fn default_params(dim: usize) -> Self::Params;

    /// Fit parameters from full-precision rows (falls back to
    /// [`Self::default_params`] when `rows` is empty). A no-op for the
    /// exact backends.
    fn fit(dim: usize, rows: &[Vec<f64>]) -> Self::Params;

    /// Encode one value of coordinate `coord` under `params`.
    fn encode(value: f64, coord: usize, params: &Self::Params) -> Self;

    /// Decode a row-aligned block of stored values back to `f64` for the
    /// kernels. `raw.len()` is always a multiple of `dim`. Backends that
    /// need to materialize the block write into `scratch` and return it;
    /// `f64` returns `raw` itself (zero-copy), which is what keeps the
    /// default backend bit-identical to the historical kernels.
    fn decode_block<'a>(
        raw: &'a [Self],
        dim: usize,
        params: &Self::Params,
        scratch: &'a mut Vec<f64>,
    ) -> &'a [f64];

    /// Reinterpret a little-endian element byte image (the layout
    /// [`Self::elems_to_bytes`] writes, and the layout stored elements
    /// occupy inside a snapshot file) as a **borrowed** `[Self]` without
    /// copying — the hook behind mapped stores
    /// ([`crate::storage::MappedSlice`]). Returns `None` whenever the
    /// reinterpretation would be unsound or wrong (byte length not a
    /// whole number of elements, pointer not aligned for `Self`,
    /// big-endian host), in which case callers fall back to the copying
    /// [`Self::elems_from_bytes`] with identical decoded values.
    ///
    /// The default refuses unconditionally, so backends outside this
    /// crate are copy-only unless they opt in with a layout they have
    /// themselves proven reinterpretable.
    fn elems_from_le_bytes(bytes: &[u8]) -> Option<&[Self]> {
        let _ = bytes;
        None
    }
}

impl FilterElem for f64 {
    type Params = ();
    const NAME: &'static str = "f64";
    const SNAPSHOT_TAG: u8 = 1;

    fn elems_to_bytes(elems: &[Self], out: &mut Vec<u8>) {
        out.reserve(elems.len() * Self::BYTES);
        for v in elems {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn elems_from_bytes(bytes: &[u8]) -> Option<Vec<Self>> {
        if !bytes.len().is_multiple_of(Self::BYTES) {
            return None;
        }
        Some(
            bytes
                .chunks_exact(Self::BYTES)
                .map(|c| f64::from_le_bytes(c.try_into().expect("exact chunk")))
                .collect(),
        )
    }

    fn params_to_bytes(_params: &Self::Params, _out: &mut Vec<u8>) {}

    fn params_from_bytes(_dim: usize, bytes: &[u8]) -> Option<Self::Params> {
        bytes.is_empty().then_some(())
    }

    fn default_params(_dim: usize) -> Self::Params {}
    fn fit(_dim: usize, _rows: &[Vec<f64>]) -> Self::Params {}
    fn encode(value: f64, _coord: usize, _params: &Self::Params) -> Self {
        value
    }
    fn decode_block<'a>(
        raw: &'a [Self],
        _dim: usize,
        _params: &Self::Params,
        _scratch: &'a mut Vec<f64>,
    ) -> &'a [f64] {
        raw
    }
    fn elems_from_le_bytes(bytes: &[u8]) -> Option<&[Self]> {
        reinterpret_le_bytes(bytes)
    }
}

impl FilterElem for f32 {
    type Params = ();
    const NAME: &'static str = "f32";
    const SNAPSHOT_TAG: u8 = 2;

    fn elems_to_bytes(elems: &[Self], out: &mut Vec<u8>) {
        out.reserve(elems.len() * Self::BYTES);
        for v in elems {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn elems_from_bytes(bytes: &[u8]) -> Option<Vec<Self>> {
        if !bytes.len().is_multiple_of(Self::BYTES) {
            return None;
        }
        Some(
            bytes
                .chunks_exact(Self::BYTES)
                .map(|c| f32::from_le_bytes(c.try_into().expect("exact chunk")))
                .collect(),
        )
    }

    fn params_to_bytes(_params: &Self::Params, _out: &mut Vec<u8>) {}

    fn params_from_bytes(_dim: usize, bytes: &[u8]) -> Option<Self::Params> {
        bytes.is_empty().then_some(())
    }

    fn default_params(_dim: usize) -> Self::Params {}
    fn fit(_dim: usize, _rows: &[Vec<f64>]) -> Self::Params {}
    fn encode(value: f64, _coord: usize, _params: &Self::Params) -> Self {
        value as f32
    }
    fn decode_block<'a>(
        raw: &'a [Self],
        _dim: usize,
        _params: &Self::Params,
        scratch: &'a mut Vec<f64>,
    ) -> &'a [f64] {
        scratch.clear();
        scratch.extend(raw.iter().map(|&v| f64::from(v)));
        scratch
    }
    fn elems_from_le_bytes(bytes: &[u8]) -> Option<&[Self]> {
        reinterpret_le_bytes(bytes)
    }
}

/// The per-coordinate affine quantization grid of the `u8` filter-store
/// backend: stored level `v` of coordinate `j` decodes to
/// `min[j] + scale[j] · v`.
///
/// Fitted by [`FilterElem::fit`] from the rows the store is built over
/// (`scale[j] = (max_j − min_j) / 255`, `0.0` for constant coordinates, in
/// which case every level decodes to the exact `min[j]`). Encoding rounds
/// to the nearest level and clamps to `0..=255`, so rows pushed after
/// construction that fall outside the fitted range saturate instead of
/// wrapping — lossy, but the refine step's exact distances make the final
/// ranking correct regardless.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantParams {
    /// Per-coordinate lower edge of the grid.
    pub min: Vec<f64>,
    /// Per-coordinate grid step.
    pub scale: Vec<f64>,
}

impl FilterElem for u8 {
    type Params = QuantParams;
    const NAME: &'static str = "u8";
    const SNAPSHOT_TAG: u8 = 3;
    /// The in-domain filter path quantizes the query side too, doubling
    /// the score-error bound (see [`crate::sad`]) — so retrieve paths
    /// default to keeping twice the filter candidates.
    const DEFAULT_P_SCALE: f64 = 2.0;

    fn scan_filter(weights: &[f64], query: &[f64], vectors: &FlatStore<Self>, out: &mut [f64]) {
        crate::sad::SadQuery::new(weights, query, vectors.params()).score(vectors, out);
    }

    fn scan_filter_range(
        weights: QueryWeights<'_>,
        queries: &FlatVectors,
        start: usize,
        end: usize,
        vectors: &FlatStore<Self>,
        out: &mut [f64],
    ) {
        crate::sad::sad_scan_range(weights, queries, start, end, vectors, out);
    }

    fn elems_to_bytes(elems: &[Self], out: &mut Vec<u8>) {
        out.extend_from_slice(elems);
    }

    fn elems_from_bytes(bytes: &[u8]) -> Option<Vec<Self>> {
        Some(bytes.to_vec())
    }

    fn params_to_bytes(params: &Self::Params, out: &mut Vec<u8>) {
        out.reserve((params.min.len() + params.scale.len()) * 8);
        for v in params.min.iter().chain(&params.scale) {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn params_from_bytes(dim: usize, bytes: &[u8]) -> Option<Self::Params> {
        if bytes.len() != 2 * dim * 8 {
            return None;
        }
        let mut vals = bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("exact chunk")));
        let min: Vec<f64> = vals.by_ref().take(dim).collect();
        let scale: Vec<f64> = vals.collect();
        Some(QuantParams { min, scale })
    }

    fn default_params(dim: usize) -> Self::Params {
        // Nothing to fit against: assume the unit range per coordinate. Any
        // fixed grid is *correct* (refine recomputes exact distances); a
        // data-fitted one is merely more selective, so prefer building from
        // rows when possible.
        QuantParams {
            min: vec![0.0; dim],
            scale: vec![1.0 / 255.0; dim],
        }
    }

    fn fit(dim: usize, rows: &[Vec<f64>]) -> Self::Params {
        if rows.is_empty() {
            return Self::default_params(dim);
        }
        let mut min = vec![f64::INFINITY; dim];
        let mut max = vec![f64::NEG_INFINITY; dim];
        for row in rows {
            for (j, &v) in row.iter().enumerate() {
                min[j] = min[j].min(v);
                max[j] = max[j].max(v);
            }
        }
        let scale = min
            .iter()
            .zip(&max)
            .map(|(lo, hi)| if hi > lo { (hi - lo) / 255.0 } else { 0.0 })
            .collect();
        QuantParams { min, scale }
    }

    fn encode(value: f64, coord: usize, params: &Self::Params) -> Self {
        let scale = params.scale[coord];
        if scale == 0.0 {
            return 0;
        }
        // Round to the nearest level, saturating at the grid edges (NaN
        // fails both clamp bounds and lands on 0).
        ((value - params.min[coord]) / scale)
            .round()
            .clamp(0.0, 255.0) as u8
    }

    fn elems_from_le_bytes(bytes: &[u8]) -> Option<&[Self]> {
        // The identity reinterpretation: stored bytes are the elements.
        Some(bytes)
    }

    fn decode_block<'a>(
        raw: &'a [Self],
        dim: usize,
        params: &Self::Params,
        scratch: &'a mut Vec<f64>,
    ) -> &'a [f64] {
        // Every value is overwritten below, so only (re)size when the block
        // shape changes (once per scan, plus once for the tail block) —
        // `resize`'s zero-fill must not run per block.
        if scratch.len() != raw.len() {
            scratch.resize(raw.len(), 0.0);
        }
        // Lock-step iterators (no index arithmetic, no bounds checks) so
        // the dequantization fma vectorizes alongside the widening load.
        for (dst, src) in scratch.chunks_exact_mut(dim).zip(raw.chunks_exact(dim)) {
            for (((out, &v), &lo), &s) in
                dst.iter_mut().zip(src).zip(&params.min).zip(&params.scale)
            {
                *out = lo + s * f64::from(v);
            }
        }
        scratch
    }
}

/// Embedded database vectors in flat row-major storage: row `i` occupies
/// elements `i * dim .. (i + 1) * dim` of one contiguous buffer. Keeping
/// all rows in a single run makes the filter scan cache-friendly and
/// prefetchable, and lets the filter scan walk the buffer without touching
/// one heap allocation per row.
///
/// The storage element `E` selects the filter-store precision (see
/// [`FilterElem`] and the module docs); [`FlatVectors`] — `FlatStore<f64>`
/// — is the exact default every API accepts unchanged. Construction and
/// [`FlatStore::push`] always take full-precision `f64` rows and encode
/// them under the store's fitted [`FilterElem::Params`].
///
/// The buffer itself lives behind the [`Storage`] abstraction
/// (`crate::storage`): heap-**owned** for anything built in process (the
/// historical representation — note it is *not* necessarily a
/// `Vec<f64>`, both because of the element backends and because of the
/// next variant), or **mapped** — borrowed zero-copy out of an `mmap`ed
/// snapshot file ([`FlatStore::from_mapped_parts`]), where element bytes
/// page in lazily and [`FlatStore::heap_bytes`] is zero. Every kernel
/// reads through [`FlatStore::as_slice`] and cannot tell the
/// representations apart; mutating a mapped store copies it onto the
/// heap first (copy-on-first-write), so the snapshot file is never
/// written through.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatStore<E: FilterElem = f64> {
    data: Storage<E>,
    dim: usize,
    rows: usize,
    params: E::Params,
}

/// The exact (`f64`) flat vector store — the historical name, kept as the
/// default alias so existing call sites and type signatures stay unchanged.
pub type FlatVectors = FlatStore<f64>;

impl<E: FilterElem> FlatStore<E> {
    /// An empty store whose rows will have `dim` coordinates. Unlike
    /// [`Self::from_rows`] on an empty vector (which must infer `dim = 0`),
    /// this keeps the dimensionality explicit so later [`Self::push`] calls
    /// are checked against the intended width. Lossy backends get their
    /// [`FilterElem::default_params`] grid (there are no rows to fit
    /// against); prefer [`Self::from_rows_with_dim`] when data is at hand.
    pub fn with_dim(dim: usize) -> Self {
        Self {
            data: Storage::Owned(Vec::new()),
            dim,
            rows: 0,
            params: E::default_params(dim),
        }
    }

    /// Flatten per-object vectors into row-major storage, inferring the
    /// dimensionality from the first row (`0` if there are none — prefer
    /// [`Self::from_rows_with_dim`] when the store may start empty).
    ///
    /// # Panics
    /// Panics if the rows disagree in dimensionality.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        let dim = rows.first().map_or(0, Vec::len);
        Self::from_rows_with_dim(dim, rows)
    }

    /// Flatten per-object vectors into row-major storage with an explicit
    /// dimensionality (the right constructor when `rows` may be empty).
    /// Lossy backends fit their encode parameters (e.g. the `u8`
    /// quantization grid) over these rows before encoding them.
    ///
    /// # Panics
    /// Panics if any row's length differs from `dim`.
    pub fn from_rows_with_dim(dim: usize, rows: Vec<Vec<f64>>) -> Self {
        assert!(
            rows.iter().all(|r| r.len() == dim),
            "all embedded vectors must have dimensionality {dim}"
        );
        let params = E::fit(dim, &rows);
        let count = rows.len();
        let mut data = Vec::with_capacity(count * dim);
        for row in &rows {
            for (j, &v) in row.iter().enumerate() {
                data.push(E::encode(v, j, &params));
            }
        }
        Self {
            data: Storage::Owned(data),
            dim,
            rows: count,
            params,
        }
    }

    /// Flatten per-object vectors into row-major storage, encoding them
    /// under **caller-provided** parameters instead of fitting fresh ones
    /// over `rows`. This is how a partitioned index keeps every shard of
    /// one collection on a *single* shared grid: fit the parameters once
    /// over the whole collection ([`FilterElem::fit`]), then build each
    /// shard's store with them — every row encodes to exactly the bytes it
    /// would have in one monolithic [`Self::from_rows_with_dim`] store, so
    /// per-shard filter scores are bit-identical to the full scan's.
    /// (Per-shard fits would move the `u8` grid and change scores.)
    ///
    /// For the exact backends `Params` is zero-sized and this is
    /// equivalent to [`Self::from_rows_with_dim`].
    ///
    /// # Panics
    /// Panics if any row's length differs from `dim`.
    pub fn from_rows_with_params(dim: usize, rows: Vec<Vec<f64>>, params: E::Params) -> Self {
        assert!(
            rows.iter().all(|r| r.len() == dim),
            "all embedded vectors must have dimensionality {dim}"
        );
        let count = rows.len();
        let mut data = Vec::with_capacity(count * dim);
        for row in &rows {
            for (j, &v) in row.iter().enumerate() {
                data.push(E::encode(v, j, &params));
            }
        }
        Self {
            data: Storage::Owned(data),
            dim,
            rows: count,
            params,
        }
    }

    /// Reassemble a store from its serialized parts — the snapshot load
    /// path. `data` must hold exactly `dim * rows` elements (row-major, as
    /// produced by [`Self::as_slice`]); returns `None` otherwise so the
    /// loader can fail with a typed error instead of panicking. The
    /// elements are adopted verbatim — no re-encoding — which is what makes
    /// a loaded store bit-identical to the saved one.
    pub fn from_stored_parts(
        dim: usize,
        rows: usize,
        params: E::Params,
        data: Vec<E>,
    ) -> Option<Self> {
        if dim.checked_mul(rows)? != data.len() {
            return None;
        }
        Some(Self {
            data: Storage::Owned(data),
            dim,
            rows,
            params,
        })
    }

    /// Assemble a store whose elements are **borrowed zero-copy** out of
    /// `byte_range` of a shared memory mapping — the mmap load path of
    /// the snapshot loaders. The bytes must be the little-endian element
    /// image [`FilterElem::elems_to_bytes`] writes (which is how the
    /// snapshot format stores them), hold exactly `dim * rows` elements,
    /// and start aligned for `E`; returns `None` otherwise (including on
    /// targets where reinterpretation is unsupported), and the caller
    /// falls back to the copying [`Self::from_stored_parts`] with
    /// identical decoded values.
    ///
    /// Scores over a mapped store are **bit-identical** to the owned
    /// store holding the same elements: the kernels read both through
    /// [`Self::as_slice`]. Mutation ([`Self::push`] /
    /// [`Self::swap_remove`]) copies the elements onto the heap first —
    /// the mapping is never written through.
    pub fn from_mapped_parts(
        dim: usize,
        rows: usize,
        params: E::Params,
        region: Arc<MapRegion>,
        byte_range: Range<usize>,
    ) -> Option<Self> {
        let expected = dim.checked_mul(rows)?.checked_mul(E::BYTES)?;
        if byte_range.len() != expected {
            return None;
        }
        let mapped = MappedSlice::new(region, byte_range)?;
        debug_assert_eq!(mapped.as_slice().len(), dim * rows);
        Some(Self {
            data: Storage::Mapped(mapped),
            dim,
            rows,
            params,
        })
    }

    /// `true` when the element buffer is borrowed from a memory-mapped
    /// snapshot rather than owned on the heap (see
    /// [`Self::from_mapped_parts`]).
    pub fn is_mapped(&self) -> bool {
        self.data.is_mapped()
    }

    /// Heap bytes held for element data: the buffer capacity for an
    /// owned store, `0` for a mapped one (its pages belong to the OS
    /// page cache) — the memory axis of the serving Pareto reports.
    pub fn heap_bytes(&self) -> usize {
        self.data.heap_bytes()
    }

    /// Number of rows (database objects).
    pub fn len(&self) -> usize {
        self.rows
    }

    /// `true` if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Dimensionality (the row stride).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The whole row-major buffer (`len() * dim()` stored elements),
    /// wherever it lives — heap or mapping.
    pub fn as_slice(&self) -> &[E] {
        self.data.as_slice()
    }

    /// The store's decode parameters (the quantization grid for `u8`,
    /// zero-sized for the exact backends).
    pub fn params(&self) -> &E::Params {
        &self.params
    }

    /// Row `i` as a slice of stored elements.
    pub fn row(&self, i: usize) -> &[E] {
        let row = &self.data.as_slice()[i * self.dim..(i + 1) * self.dim];
        debug_assert_eq!(row.len(), self.dim);
        row
    }

    /// Row `i` decoded back to full precision — exactly the values the
    /// filter kernels score against (lossy for the compressed backends, the
    /// stored row itself for `f64`).
    pub fn decode_row(&self, i: usize) -> Vec<f64> {
        let mut scratch = Vec::new();
        E::decode_block(self.row(i), self.dim.max(1), &self.params, &mut scratch).to_vec()
    }

    /// Iterator over all rows in index order (always exactly [`Self::len`]
    /// items, even in the degenerate zero-dimensional case).
    pub fn iter_rows(&self) -> impl Iterator<Item = &[E]> {
        (0..self.rows).map(|i| self.row(i))
    }

    /// Append one full-precision row, encoding it under the store's fitted
    /// parameters (lossy backends saturate values outside the fitted
    /// range). On a mapped store this first materializes a private owned
    /// copy (copy-on-first-write) — the mapping is never written through.
    ///
    /// # Panics
    /// Panics if the row has the wrong dimensionality.
    pub fn push(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.dim, "row dimensionality mismatch");
        let (dim, params) = (self.dim, &self.params);
        let data = self.data.make_owned();
        data.extend(
            row.iter()
                .enumerate()
                .map(|(j, &v)| E::encode(v, j, params)),
        );
        self.rows += 1;
        debug_assert_eq!(data.len(), self.rows * dim);
    }

    /// Remove row `index` by moving the last row into its slot (O(dim)).
    /// On a mapped store this first materializes a private owned copy
    /// (copy-on-first-write), like [`Self::push`].
    ///
    /// # Panics
    /// Panics if `index` is out of bounds.
    pub fn swap_remove(&mut self, index: usize) {
        assert!(index < self.rows, "row index {index} out of bounds");
        let last = self.rows - 1;
        let dim = self.dim;
        let data = self.data.make_owned();
        if index != last {
            let (head, tail) = data.split_at_mut(last * dim);
            head[index * dim..(index + 1) * dim].copy_from_slice(&tail[..dim]);
        }
        data.truncate(last * dim);
        self.rows = last;
        debug_assert_eq!(data.len(), self.rows * dim);
    }
}

/// The weights a batch of queries is scored under.
///
/// A global weighted `L1` (BoostMap, FastMap) scores every query under one
/// [`QueryWeights::Shared`] row; the paper's query-sensitive `D_out`, whose
/// weights `A_i(q)` depend on the query, scores query `q` under row `q` of
/// a [`QueryWeights::PerQuery`] store.
#[derive(Debug, Clone, Copy)]
pub enum QueryWeights<'a> {
    /// One weight row shared by every query.
    Shared(&'a [f64]),
    /// One weight row per query, aligned row for row with the queries.
    PerQuery(&'a FlatVectors),
}

impl<'a> QueryWeights<'a> {
    /// The weight row query `q` is scored under.
    pub(crate) fn row(self, q: usize) -> &'a [f64] {
        match self {
            QueryWeights::Shared(w) => w,
            QueryWeights::PerQuery(w) => w.row(q),
        }
    }
}

/// The single-query filter scan: score `query` under `weights` against
/// every row of `vectors`, `out[i] = Σ_j weights[j] · |query[j] − row_i[j]|`,
/// through the store backend's [`FilterElem::scan_filter`] — the decode
/// path for `f64`/`f32` (bit-identical to [`weighted_l1_row`] on every
/// row), the integer SAD kernel of [`crate::sad`] for `u8`.
///
/// # Panics
/// Panics if `weights`/`query` do not match the store's dimensionality or
/// `out` does not have exactly one slot per row.
pub fn filter_scan<E: FilterElem>(
    weights: &[f64],
    query: &[f64],
    vectors: &FlatStore<E>,
    out: &mut [f64],
) {
    let dim = vectors.dim();
    assert_eq!(weights.len(), dim, "weight/store dimensionality mismatch");
    assert_eq!(query.len(), dim, "query/store dimensionality mismatch");
    assert_eq!(out.len(), vectors.len(), "one output slot per row required");
    if vectors.is_empty() {
        return;
    }
    if dim == 0 {
        // Zero-dimensional rows: every distance is the empty sum.
        out.fill(0.0);
        return;
    }
    E::scan_filter(weights, query, vectors, out);
}

/// One *sequential* tile of a batched filter scan: score queries
/// `start..end` of `queries` against every row of `vectors` on the calling
/// thread, writing the row-major `(end − start) × vectors.len()` tile into
/// `out` (`out[(q − start) · n + i]` is query `q` against row `i`).
///
/// This is the entry for callers that orchestrate their own tile fan-out
/// — the batched retrieval pipelines hand each worker one
/// [`QUERY_TILE`]-sized range so the scores land in a small tile-local
/// buffer consumed while still cache-hot. Every score is bit-identical to
/// [`filter_scan`] of that query under its weight row.
///
/// # Panics
/// Panics on a dimensionality mismatch, a [`QueryWeights::PerQuery`]
/// store without exactly one row per query, an out-of-bounds query range,
/// or `out.len() != (end − start) · vectors.len()`.
pub fn filter_scan_range<E: FilterElem>(
    weights: QueryWeights<'_>,
    queries: &FlatVectors,
    start: usize,
    end: usize,
    vectors: &FlatStore<E>,
    out: &mut [f64],
) {
    check_tile(weights, queries, start, end, vectors, out.len());
    scan_tile(weights, queries, start, end, vectors, out);
}

/// The Q×N batched filter scan: score every row of `queries` against every
/// row of `vectors` into the row-major `out[q · vectors.len() + i]`.
///
/// Queries are cut into [`QUERY_TILE`]-row tiles that run in parallel on
/// the persistent worker pool, each through the same backend tile as
/// [`filter_scan_range`]; tiles write disjoint `out` ranges, so the result
/// is bit-identical to per-query [`filter_scan`] at any thread count.
///
/// # Panics
/// As [`filter_scan_range`] over the whole batch.
pub fn filter_scan_batch<E: FilterElem>(
    weights: QueryWeights<'_>,
    queries: &FlatVectors,
    vectors: &FlatStore<E>,
    out: &mut [f64],
) {
    check_tile(weights, queries, 0, queries.len(), vectors, out.len());
    let n = vectors.len();
    if n == 0 {
        return;
    }
    out.par_chunks_mut(QUERY_TILE * n)
        .enumerate()
        .for_each(|(tile, tile_out)| {
            let q0 = tile * QUERY_TILE;
            scan_tile(
                weights,
                queries,
                q0,
                q0 + tile_out.len() / n,
                vectors,
                tile_out,
            );
        });
}

/// The shape contract of [`filter_scan_range`] and [`filter_scan_batch`],
/// checked in release builds too: the backend tiles index by these shapes.
fn check_tile<E: FilterElem>(
    weights: QueryWeights<'_>,
    queries: &FlatVectors,
    start: usize,
    end: usize,
    vectors: &FlatStore<E>,
    out_len: usize,
) {
    let dim = vectors.dim();
    match weights {
        QueryWeights::Shared(w) => {
            assert_eq!(w.len(), dim, "weight/store dimensionality mismatch");
        }
        QueryWeights::PerQuery(w) => {
            assert_eq!(w.dim(), dim, "weight/store dimensionality mismatch");
            assert_eq!(w.len(), queries.len(), "one weight row per query required");
        }
    }
    assert_eq!(queries.dim(), dim, "query/store dimensionality mismatch");
    assert!(
        start <= end && end <= queries.len(),
        "query range {start}..{end} out of bounds for {} queries",
        queries.len()
    );
    assert_eq!(
        out_len,
        (end - start) * vectors.len(),
        "one output slot per (query, row) pair required"
    );
}

/// Score one checked tile: settle the degenerate shapes, hand the rest to
/// the backend's [`FilterElem::scan_filter_range`].
fn scan_tile<E: FilterElem>(
    weights: QueryWeights<'_>,
    queries: &FlatVectors,
    start: usize,
    end: usize,
    vectors: &FlatStore<E>,
    out: &mut [f64],
) {
    if start == end || vectors.is_empty() {
        // Nothing to score: `out` is empty by the length contract.
        return;
    }
    if vectors.dim() == 0 {
        // Zero-dimensional rows: every distance is the empty sum.
        out.fill(0.0);
        return;
    }
    E::scan_filter_range(weights, queries, start, end, vectors, out);
}

/// The decode-path single-query scan body: decode one cache-sized block,
/// reduce every row with the canonical [`weighted_l1_row`] order.
///
/// `#[inline(always)]` is load-bearing, not a hint (same mechanism as
/// the SAD scan in [`crate::sad`]): the `target_feature` wrapper below
/// inlines this body and recompiles it — decode loop and
/// [`weighted_l1_row`] reduction together — under the wider ISA. The
/// lane structure ([`LANES`] explicit independent accumulators combined
/// pairwise) fixes the summation order in the source, so ISA choice can
/// change speed only, never a single output bit (no FMA contraction:
/// `avx2` does not enable `fma`, and Rust never contracts float
/// expressions on its own) — pinned by the workspace dispatch tests.
#[inline(always)]
fn l1_flat_body<E: FilterElem>(
    weights: &[f64],
    query: &[f64],
    vectors: &FlatStore<E>,
    out: &mut [f64],
) {
    let dim = vectors.dim();
    let rows_per_block = (BLOCK_VALUES / dim).max(1);
    let mut scratch = Vec::new();
    for (raw, out_block) in vectors
        .as_slice()
        .chunks(rows_per_block * dim)
        .zip(out.chunks_mut(rows_per_block))
    {
        let block = E::decode_block(raw, dim, vectors.params(), &mut scratch);
        for (row, slot) in block.chunks_exact(dim).zip(out_block.iter_mut()) {
            debug_assert_eq!(row.len(), dim);
            *slot = weighted_l1_row(weights, query, row);
        }
    }
}

/// [`l1_flat_body`] recompiled under AVX2 codegen (4-wide `f64` lanes
/// instead of the SSE2 baseline's 2-wide).
///
/// # Safety
/// The host CPU must support AVX2 (callers guard with
/// `is_x86_feature_detected!`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn l1_flat_avx2<E: FilterElem>(
    weights: &[f64],
    query: &[f64],
    vectors: &FlatStore<E>,
    out: &mut [f64],
) {
    l1_flat_body(weights, query, vectors, out);
}

/// Run [`l1_flat_body`] under the widest ISA the host supports, mirroring
/// the SAD scan's multiversioning (`sad_rows_dispatch` in
/// [`crate::sad`]): one cached runtime AVX2 check
/// (`is_x86_feature_detected!` memoizes), then the recompiled body or
/// the baseline. Bit-identical across variants by the explicit lane
/// structure — pinned by the workspace dispatch tests.
#[inline]
fn l1_flat_dispatch<E: FilterElem>(
    weights: &[f64],
    query: &[f64],
    vectors: &FlatStore<E>,
    out: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the AVX2 requirement is established by the runtime
        // detection on the line above.
        unsafe { l1_flat_avx2(weights, query, vectors, out) };
        return;
    }
    l1_flat_body(weights, query, vectors, out);
}

/// Number of query rows per tile of the Q×N batched filter scan
/// ([`filter_scan_batch`]).
///
/// One tile holds `QUERY_TILE · dim` query coordinates plus (on the
/// query-sensitive path) as many weight values — a few kilobytes at the
/// embedding dimensionalities the paper uses — so the tile stays
/// cache-resident while the database buffer streams through once per tile,
/// amortizing every database row load across [`QUERY_TILE`] queries.
pub const QUERY_TILE: usize = 16;

/// Number of `f64` values per database block inside one query tile of the
/// batch kernels (32 KiB — sized to the L1 data cache). A block of
/// `BLOCK_VALUES / dim` rows is loaded once and rescanned by every query of
/// the tile from L1 before the next block streams in, while keeping the
/// innermost loop long enough that its setup cost (re-slicing the query and
/// weight rows) stays amortized.
pub const BLOCK_VALUES: usize = 4096;

/// `Σ_i w1_i |a1_i − b_i|` and `Σ_i w2_i |a2_i − b_i|` in one pass over `b`.
///
/// The row-pair workhorse of the tiled batch kernel: two queries share every
/// load of the database row `b` (halving the dominant memory traffic and
/// doubling the independent work per iteration), while each sum keeps its
/// **own** [`LANES`] accumulators combined exactly as in
/// [`weighted_l1_row`] — so both results are bit-identical to two separate
/// [`weighted_l1_row`] calls.
#[inline]
fn weighted_l1_row_pair(w1: &[f64], a1: &[f64], w2: &[f64], a2: &[f64], b: &[f64]) -> (f64, f64) {
    let mut acc1 = [0.0f64; LANES];
    let mut acc2 = [0.0f64; LANES];
    let mut w1_blocks = w1.chunks_exact(LANES);
    let mut a1_blocks = a1.chunks_exact(LANES);
    let mut w2_blocks = w2.chunks_exact(LANES);
    let mut a2_blocks = a2.chunks_exact(LANES);
    let mut b_blocks = b.chunks_exact(LANES);
    for ((((wa, xa), wb), xb), y) in (&mut w1_blocks)
        .zip(&mut a1_blocks)
        .zip(&mut w2_blocks)
        .zip(&mut a2_blocks)
        .zip(&mut b_blocks)
    {
        for lane in 0..LANES {
            acc1[lane] += wa[lane] * (xa[lane] - y[lane]).abs();
            acc2[lane] += wb[lane] * (xb[lane] - y[lane]).abs();
        }
    }
    let mut tail1 = 0.0;
    let mut tail2 = 0.0;
    for ((((wa, xa), wb), xb), y) in w1_blocks
        .remainder()
        .iter()
        .zip(a1_blocks.remainder())
        .zip(w2_blocks.remainder())
        .zip(a2_blocks.remainder())
        .zip(b_blocks.remainder())
    {
        tail1 += wa * (xa - y).abs();
        tail2 += wb * (xb - y).abs();
    }
    (
        (acc1[0] + acc1[1]) + (acc1[2] + acc1[3]) + tail1,
        (acc2[0] + acc2[1]) + (acc2[2] + acc2[3]) + tail2,
    )
}

/// Score one tile of `qcount` query rows against every row of `vectors`.
///
/// `weights` holds either one shared weight row (`w_stride == 0`) or one row
/// per query (`w_stride == dim`); `queries` holds `qcount` rows of `dim`
/// coordinates; `out[q * n + i]` receives query `q` of the tile against row
/// `i`. Two levels of reuse: each [`BLOCK_VALUES`]-value database block is
/// rescanned by the whole tile while it is cache-hot, and within a block,
/// *pairs* of queries walk it together through [`weighted_l1_row_pair`] so
/// every row load is shared at the register level. Each block is decoded to
/// `f64` **once per tile** (a zero-copy borrow for the exact backend), so
/// lossy backends amortize decoding across every query of the tile; each
/// score still reduces in the canonical [`weighted_l1_row`] order, so
/// outputs are bit-identical to the per-query path over the same store.
fn weighted_l1_score_tile<E: FilterElem>(
    weights: &[f64],
    w_stride: usize,
    queries: &[f64],
    qcount: usize,
    dim: usize,
    vectors: &FlatStore<E>,
    out: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the AVX2 requirement is established by the runtime
        // detection on the line above (the check is cached by std).
        unsafe {
            weighted_l1_score_tile_avx2(weights, w_stride, queries, qcount, dim, vectors, out)
        };
        return;
    }
    weighted_l1_score_tile_body(weights, w_stride, queries, qcount, dim, vectors, out);
}

/// [`weighted_l1_score_tile_body`] recompiled under AVX2 codegen — the
/// decode loop, [`weighted_l1_row_pair`] and the odd-tail
/// [`weighted_l1_row`] all inline here and get 4-wide `f64` lanes. The
/// explicit [`LANES`]-accumulator structure fixes the summation order in
/// the source (and `avx2` does not enable `fma`, so no contraction), so
/// outputs stay bit-identical to the baseline — pinned by the workspace
/// dispatch tests.
///
/// # Safety
/// The host CPU must support AVX2 (callers guard with
/// `is_x86_feature_detected!`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn weighted_l1_score_tile_avx2<E: FilterElem>(
    weights: &[f64],
    w_stride: usize,
    queries: &[f64],
    qcount: usize,
    dim: usize,
    vectors: &FlatStore<E>,
    out: &mut [f64],
) {
    weighted_l1_score_tile_body(weights, w_stride, queries, qcount, dim, vectors, out);
}

/// The actual tile scan behind [`weighted_l1_score_tile`].
/// `#[inline(always)]` is load-bearing (same mechanism as the SAD scan in
/// [`crate::sad`]): the `target_feature` wrapper above must inline this
/// body to recompile it under the wider ISA.
#[inline(always)]
fn weighted_l1_score_tile_body<E: FilterElem>(
    weights: &[f64],
    w_stride: usize,
    queries: &[f64],
    qcount: usize,
    dim: usize,
    vectors: &FlatStore<E>,
    out: &mut [f64],
) {
    let n = vectors.len();
    debug_assert!(dim > 0, "dim-0 stores are handled by the caller");
    debug_assert_eq!(queries.len(), qcount * dim);
    debug_assert_eq!(out.len(), qcount * n);
    let rows_per_block = (BLOCK_VALUES / dim).max(1);
    let mut block_start = 0usize;
    let mut scratch = Vec::new();
    for raw in vectors.as_slice().chunks(rows_per_block * dim) {
        let block = E::decode_block(raw, dim, vectors.params(), &mut scratch);
        let block_rows = block.len() / dim;
        let mut q = 0;
        // Query pairs share each row load (register-level reuse).
        while q + 1 < qcount {
            let w1 = &weights[q * w_stride..q * w_stride + dim];
            let q1 = &queries[q * dim..(q + 1) * dim];
            let w2 = &weights[(q + 1) * w_stride..(q + 1) * w_stride + dim];
            let q2 = &queries[(q + 1) * dim..(q + 2) * dim];
            let (out_head, out_tail) = out.split_at_mut((q + 1) * n);
            let out1 = &mut out_head[q * n + block_start..q * n + block_start + block_rows];
            let out2 = &mut out_tail[block_start..block_start + block_rows];
            for ((row, slot1), slot2) in block
                .chunks_exact(dim)
                .zip(out1.iter_mut())
                .zip(out2.iter_mut())
            {
                let (s1, s2) = weighted_l1_row_pair(w1, q1, w2, q2, row);
                *slot1 = s1;
                *slot2 = s2;
            }
            q += 2;
        }
        // Odd tail query: the plain single-query scan.
        if q < qcount {
            let w = &weights[q * w_stride..q * w_stride + dim];
            let query = &queries[q * dim..(q + 1) * dim];
            let out_start = q * n + block_start;
            let out_block = &mut out[out_start..out_start + block_rows];
            for (row, slot) in block.chunks_exact(dim).zip(out_block.iter_mut()) {
                *slot = weighted_l1_row(w, query, row);
            }
        }
        block_start += block_rows;
    }
}

/// The decode-path tile behind the default [`FilterElem::scan_filter_range`]:
/// slice the tile's query rows and weight rows out of the batch (a shared
/// weight row has stride 0, per-query rows stride `dim`) and score them
/// with [`weighted_l1_score_tile`].
fn l1_tile_range<E: FilterElem>(
    weights: QueryWeights<'_>,
    queries: &FlatVectors,
    start: usize,
    end: usize,
    vectors: &FlatStore<E>,
    out: &mut [f64],
) {
    let dim = vectors.dim();
    let (w_rows, w_stride) = match weights {
        QueryWeights::Shared(w) => (w, 0),
        QueryWeights::PerQuery(w) => (&w.as_slice()[start * dim..end * dim], dim),
    };
    let q_rows = &queries.as_slice()[start * dim..end * dim];
    weighted_l1_score_tile(w_rows, w_stride, q_rows, end - start, dim, vectors, out);
}

/// The `Lp` distance between two equal-length vectors.
///
/// `p = 1` is the measure the paper uses in the filter step; `p = 2` is the
/// Euclidean distance used by FastMap's original formulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LpDistance {
    /// The exponent `p >= 1`.
    pub p: f64,
}

impl LpDistance {
    /// Manhattan / city-block distance (`p = 1`).
    pub fn l1() -> Self {
        Self { p: 1.0 }
    }

    /// Euclidean distance (`p = 2`).
    pub fn l2() -> Self {
        Self { p: 2.0 }
    }

    /// General `Lp` distance.
    ///
    /// # Panics
    /// Panics if `p < 1` (not a norm, triangle inequality fails).
    pub fn new(p: f64) -> Self {
        assert!(p >= 1.0, "Lp distance requires p >= 1, got {p}");
        Self { p }
    }

    /// Evaluate the distance between two slices.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(
            a.len(),
            b.len(),
            "Lp distance requires equal-length vectors ({} vs {})",
            a.len(),
            b.len()
        );
        if self.p == 1.0 {
            a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
        } else if self.p == 2.0 {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt()
        } else {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs().powf(self.p))
                .sum::<f64>()
                .powf(1.0 / self.p)
        }
    }
}

impl DistanceMeasure<[f64]> for LpDistance {
    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        self.eval(a, b)
    }
    fn properties(&self) -> MetricProperties {
        MetricProperties::Metric
    }
    fn name(&self) -> &'static str {
        "lp"
    }
}

impl DistanceMeasure<Vector> for LpDistance {
    fn distance(&self, a: &Vector, b: &Vector) -> f64 {
        self.eval(a, b)
    }
    fn properties(&self) -> MetricProperties {
        MetricProperties::Metric
    }
    fn name(&self) -> &'static str {
        "lp"
    }
}

/// A weighted `L1` distance with *fixed* (query-insensitive) per-coordinate
/// weights: `D(a, b) = Σ_i w_i |a_i − b_i|`.
///
/// This is the distance a query-*insensitive* BoostMap embedding uses in the
/// filter step. The query-sensitive `D_out` of Eq. 11 reduces to this once a
/// specific query has been fixed, which is exactly how `qse-core` implements
/// it: it computes the weight vector `A_i(q)` for the query and then hands it
/// to [`WeightedL1`].
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedL1 {
    weights: Vec<f64>,
}

impl WeightedL1 {
    /// Create a weighted L1 distance from non-negative weights.
    ///
    /// # Panics
    /// Panics if any weight is negative or non-finite.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weighted L1 requires finite non-negative weights"
        );
        Self { weights }
    }

    /// Uniform weights of 1.0 (plain L1) in `dim` dimensions.
    pub fn uniform(dim: usize) -> Self {
        Self {
            weights: vec![1.0; dim],
        }
    }

    /// The weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of coordinates.
    pub fn dim(&self) -> usize {
        self.weights.len()
    }

    /// Evaluate `Σ_i w_i |a_i − b_i|` (in the canonical blocked order of
    /// [`weighted_l1_row`], so the result is bit-identical to what
    /// [`Self::eval_filter`] writes for the same row of an `f64` store).
    ///
    /// # Panics
    /// Panics if the vectors do not match the weight dimensionality.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(
            a.len(),
            self.weights.len(),
            "vector/weight dimensionality mismatch"
        );
        assert_eq!(
            b.len(),
            self.weights.len(),
            "vector/weight dimensionality mismatch"
        );
        weighted_l1_row(&self.weights, a, b)
    }

    /// Score `query` against every row of `vectors`:
    /// `out[i] = Σ_j w_j |query_j − row_i_j|` — the filter step's hot scan
    /// ([`filter_scan`]). On the `f64`/`f32` backends each `out[i]` is
    /// **bit-identical** to `self.eval(query, row)` on the decoded row; on
    /// `u8` it is the integer SAD score of [`crate::sad`], within the
    /// documented query-side quantization bound.
    ///
    /// # Panics
    /// Panics if `query` or the store do not match the weight dimensionality,
    /// or if `out.len() != vectors.len()`.
    pub fn eval_filter<E: FilterElem>(
        &self,
        query: &[f64],
        vectors: &FlatStore<E>,
        out: &mut [f64],
    ) {
        filter_scan(&self.weights, query, vectors, out)
    }

    /// Score a whole query batch against every row of `vectors`, row-major
    /// Q×N ([`filter_scan_batch`] under these shared weights): tiles of
    /// [`QUERY_TILE`] queries run in parallel on the persistent worker
    /// pool, and each `out[q * n + i]` is **bit-identical** to what
    /// [`Self::eval_filter`] writes for query `q`, at any thread count.
    ///
    /// # Panics
    /// As [`filter_scan_batch`].
    pub fn eval_filter_batch<E: FilterElem>(
        &self,
        queries: &FlatVectors,
        vectors: &FlatStore<E>,
        out: &mut [f64],
    ) {
        filter_scan_batch(QueryWeights::Shared(&self.weights), queries, vectors, out)
    }

    /// One *sequential* tile of [`Self::eval_filter_batch`]: queries
    /// `start..end` only, on the calling thread ([`filter_scan_range`]).
    ///
    /// # Panics
    /// As [`filter_scan_range`].
    pub fn eval_filter_batch_range<E: FilterElem>(
        &self,
        queries: &FlatVectors,
        start: usize,
        end: usize,
        vectors: &FlatStore<E>,
        out: &mut [f64],
    ) {
        let weights = QueryWeights::Shared(&self.weights);
        filter_scan_range(weights, queries, start, end, vectors, out)
    }
}

impl DistanceMeasure<[f64]> for WeightedL1 {
    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        self.eval(a, b)
    }
    fn properties(&self) -> MetricProperties {
        // With non-negative weights the weighted L1 is a pseudo-metric (it is
        // a metric unless some weight is zero, in which case distinct vectors
        // can be at distance zero). We conservatively report Metric because
        // the triangle inequality always holds.
        MetricProperties::Metric
    }
    fn name(&self) -> &'static str {
        "weighted-l1"
    }
}

impl DistanceMeasure<Vector> for WeightedL1 {
    fn distance(&self, a: &Vector, b: &Vector) -> f64 {
        self.eval(a, b)
    }
    fn properties(&self) -> MetricProperties {
        MetricProperties::Metric
    }
    fn name(&self) -> &'static str {
        "weighted-l1"
    }
}

/// Squared Euclidean distance (not a metric — violates the triangle
/// inequality) occasionally useful as a cheap proxy in tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SquaredEuclidean;

impl SquaredEuclidean {
    /// Evaluate the squared Euclidean distance.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "dimensionality mismatch");
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }
}

impl DistanceMeasure<[f64]> for SquaredEuclidean {
    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        self.eval(a, b)
    }
    fn properties(&self) -> MetricProperties {
        MetricProperties::SymmetricNonMetric
    }
    fn name(&self) -> &'static str {
        "squared-euclidean"
    }
}

impl DistanceMeasure<Vector> for SquaredEuclidean {
    fn distance(&self, a: &Vector, b: &Vector) -> f64 {
        self.eval(a, b)
    }
    fn properties(&self) -> MetricProperties {
        MetricProperties::SymmetricNonMetric
    }
    fn name(&self) -> &'static str {
        "squared-euclidean"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_and_l2_basic_values() {
        let a = [0.0, 0.0, 0.0];
        let b = [1.0, 2.0, 2.0];
        assert_eq!(LpDistance::l1().eval(&a, &b), 5.0);
        assert!((LpDistance::l2().eval(&a, &b) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn general_p_matches_specializations() {
        let a = [0.3, -1.2, 4.5, 0.0];
        let b = [1.0, 2.0, -2.0, 7.5];
        let generic1 = LpDistance::new(1.0).eval(&a, &b);
        let generic2 = LpDistance::new(2.0).eval(&a, &b);
        // new(1.0)/new(2.0) hit the fast paths; force the general path via p
        // slightly off and compare loosely.
        assert!((generic1 - LpDistance::l1().eval(&a, &b)).abs() < 1e-12);
        assert!((generic2 - LpDistance::l2().eval(&a, &b)).abs() < 1e-12);
        let p3 = LpDistance::new(3.0).eval(&a, &b);
        let manual: f64 = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y).abs().powi(3))
            .sum::<f64>()
            .cbrt();
        assert!((p3 - manual).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "p >= 1")]
    fn rejects_p_below_one() {
        let _ = LpDistance::new(0.5);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn rejects_mismatched_lengths() {
        let _ = LpDistance::l1().eval(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn weighted_l1_weights_coordinates() {
        let d = WeightedL1::new(vec![2.0, 0.0, 1.0]);
        assert_eq!(d.eval(&[0.0, 0.0, 0.0], &[1.0, 5.0, 2.0]), 2.0 + 0.0 + 2.0);
        assert_eq!(d.dim(), 3);
    }

    #[test]
    fn weighted_l1_uniform_equals_l1() {
        let a = [1.0, -2.0, 3.0];
        let b = [0.5, 4.0, 3.0];
        assert!(
            (WeightedL1::uniform(3).eval(&a, &b) - LpDistance::l1().eval(&a, &b)).abs() < 1e-12
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn weighted_l1_rejects_negative_weights() {
        let _ = WeightedL1::new(vec![1.0, -0.1]);
    }

    #[test]
    fn squared_euclidean_is_square_of_l2() {
        let a = [1.0, 2.0];
        let b = [4.0, 6.0];
        let l2 = LpDistance::l2().eval(&a, &b);
        assert!((SquaredEuclidean.eval(&a, &b) - l2 * l2).abs() < 1e-12);
    }

    #[test]
    fn trait_objects_over_vectors() {
        let d: Box<dyn DistanceMeasure<Vec<f64>>> = Box::new(LpDistance::l1());
        assert_eq!(d.distance(&vec![0.0, 0.0], &vec![1.0, 1.0]), 2.0);
    }

    #[test]
    fn eval_flat_matches_per_row_eval_bitwise() {
        // Dims straddling the lane width, including the exact multiples.
        for dim in [1, 3, 4, 5, 7, 8, 11, 16, 67] {
            let weights: Vec<f64> = (0..dim).map(|i| 0.25 + (i % 5) as f64 * 0.61).collect();
            let query: Vec<f64> = (0..dim).map(|i| (i as f64).sin() * 9.0).collect();
            let rows: Vec<Vec<f64>> = (0..13)
                .map(|r| {
                    (0..dim)
                        .map(|i| ((r * dim + i) as f64).cos() * 7.0)
                        .collect()
                })
                .collect();
            let d = WeightedL1::new(weights);
            let fv = FlatVectors::from_rows_with_dim(dim, rows);
            let mut out = vec![f64::NAN; fv.len()];
            d.eval_filter(&query, &fv, &mut out);
            for (i, score) in out.iter().enumerate() {
                assert_eq!(
                    score.to_bits(),
                    d.eval(&query, fv.row(i)).to_bits(),
                    "dim {dim}, row {i}"
                );
            }
        }
    }

    #[test]
    fn eval_flat_on_empty_store_writes_nothing() {
        let d = WeightedL1::uniform(3);
        let fv = FlatVectors::with_dim(3);
        let mut out: Vec<f64> = Vec::new();
        d.eval_filter(&[1.0, 2.0, 3.0], &fv, &mut out);
        assert!(out.is_empty());
        assert!(fv.is_empty());
        assert_eq!(fv.iter_rows().count(), 0);
    }

    #[test]
    fn eval_flat_handles_zero_dimensional_rows() {
        // dim = 0: every row is the empty vector and every distance is 0.
        let d = WeightedL1::new(Vec::new());
        let mut fv = FlatVectors::with_dim(0);
        fv.push(&[]);
        fv.push(&[]);
        fv.push(&[]);
        assert_eq!(fv.len(), 3);
        let mut out = vec![f64::NAN; 3];
        d.eval_filter(&[], &fv, &mut out);
        assert_eq!(out, vec![0.0, 0.0, 0.0]);
        fv.swap_remove(1);
        assert_eq!(fv.len(), 2);
        let mut out = vec![f64::NAN; 2];
        d.eval_filter(&[], &fv, &mut out);
        assert_eq!(out, vec![0.0, 0.0]);
    }

    #[test]
    fn flat_vectors_push_after_empty_constructor_keeps_dim() {
        let mut fv = FlatVectors::with_dim(2);
        fv.push(&[1.0, 2.0]);
        fv.push(&[3.0, 4.0]);
        fv.swap_remove(0);
        assert_eq!(fv.len(), 1);
        assert_eq!(fv.row(0), &[3.0, 4.0]);
        assert_eq!(fv.dim(), 2);
    }

    #[test]
    #[should_panic(expected = "row dimensionality mismatch")]
    fn flat_vectors_with_dim_rejects_mismatched_push() {
        let mut fv = FlatVectors::with_dim(2);
        fv.push(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "one output slot per row")]
    fn eval_flat_rejects_wrong_output_length() {
        let d = WeightedL1::uniform(2);
        let fv = FlatVectors::from_rows(vec![vec![0.0, 0.0]]);
        let mut out = vec![0.0; 2];
        d.eval_filter(&[0.0, 0.0], &fv, &mut out);
    }

    /// Deterministic pseudo-random store for the batch-kernel tests.
    fn synthetic_store(dim: usize, rows: usize, phase: f64) -> FlatVectors {
        FlatVectors::from_rows_with_dim(
            dim,
            (0..rows)
                .map(|r| {
                    (0..dim)
                        .map(|i| ((r * dim + i) as f64 + phase).sin() * 11.0)
                        .collect()
                })
                .collect(),
        )
    }

    /// The decode-path ISA dispatch (single-query and tiled bodies
    /// recompiled under AVX2, mirroring the SAD scan) must never change a
    /// bit: compare the dispatched entry points against the baseline
    /// bodies directly, for both exact backends.
    #[test]
    fn decode_isa_dispatch_is_bit_identical_to_scalar() {
        fn check<E: FilterElem>(store: &FlatStore<E>) {
            let dim = store.dim();
            let rows = store.len();
            let weights: Vec<f64> = (0..dim).map(|i| 0.2 + (i % 5) as f64 * 0.33).collect();
            let queries = synthetic_store(dim, 5, 0.75);
            // Single-query scan: dispatch vs baseline body.
            let mut dispatched = vec![f64::NAN; rows];
            l1_flat_dispatch(&weights, queries.row(0), store, &mut dispatched);
            let mut scalar = vec![f64::NAN; rows];
            l1_flat_body(&weights, queries.row(0), store, &mut scalar);
            for (i, (d, s)) in dispatched.iter().zip(&scalar).enumerate() {
                assert_eq!(
                    d.to_bits(),
                    s.to_bits(),
                    "{} flat, dim {dim}, row {i}",
                    E::NAME
                );
            }
            // Tiled batch scan: dispatch vs baseline body.
            let qcount = queries.len();
            let mut dispatched = vec![f64::NAN; qcount * rows];
            weighted_l1_score_tile(
                &weights,
                0,
                queries.as_slice(),
                qcount,
                dim,
                store,
                &mut dispatched,
            );
            let mut scalar = vec![f64::NAN; qcount * rows];
            weighted_l1_score_tile_body(
                &weights,
                0,
                queries.as_slice(),
                qcount,
                dim,
                store,
                &mut scalar,
            );
            for (i, (d, s)) in dispatched.iter().zip(&scalar).enumerate() {
                assert_eq!(
                    d.to_bits(),
                    s.to_bits(),
                    "{} tile, dim {dim}, slot {i}",
                    E::NAME
                );
            }
        }
        for dim in [1, 3, 8, 67] {
            let rows: Vec<Vec<f64>> = (0..213)
                .map(|r| {
                    (0..dim)
                        .map(|i| ((r * dim + i) as f64 * 0.37).cos() * 9.0)
                        .collect()
                })
                .collect();
            check(&FlatStore::<f64>::from_rows_with_dim(dim, rows.clone()));
            check(&FlatStore::<f32>::from_rows_with_dim(dim, rows));
        }
    }

    #[test]
    fn eval_flat_batch_matches_per_query_eval_flat_bitwise() {
        // Batch sizes straddling the tile width, dims straddling the lane
        // width — every score must equal the per-query kernel bit for bit.
        for dim in [1, 3, 4, 5, 8, 67] {
            for qcount in [1, 2, 15, 16, 17, 33] {
                let weights: Vec<f64> = (0..dim).map(|i| 0.1 + (i % 7) as f64 * 0.43).collect();
                let d = WeightedL1::new(weights);
                let queries = synthetic_store(dim, qcount, 0.25);
                let store = synthetic_store(dim, 21, 7.5);
                let mut batch = vec![f64::NAN; qcount * store.len()];
                d.eval_filter_batch(&queries, &store, &mut batch);
                let mut single = vec![f64::NAN; store.len()];
                for q in 0..qcount {
                    d.eval_filter(queries.row(q), &store, &mut single);
                    for (i, score) in single.iter().enumerate() {
                        assert_eq!(
                            batch[q * store.len() + i].to_bits(),
                            score.to_bits(),
                            "dim {dim}, batch {qcount}, query {q}, row {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn per_query_weights_batch_matches_per_query_flat_scans_bitwise() {
        // The query-sensitive form: every query carries its own weight row.
        for dim in [1, 4, 9] {
            let qcount = 19;
            let queries = synthetic_store(dim, qcount, 1.0);
            let weights = FlatVectors::from_rows_with_dim(
                dim,
                (0..qcount)
                    .map(|q| (0..dim).map(|i| ((q + i) % 5) as f64 * 0.77).collect())
                    .collect(),
            );
            let store = synthetic_store(dim, 30, 3.0);
            let mut batch = vec![f64::NAN; qcount * store.len()];
            filter_scan_batch(
                QueryWeights::PerQuery(&weights),
                &queries,
                &store,
                &mut batch,
            );
            let mut single = vec![f64::NAN; store.len()];
            for q in 0..qcount {
                filter_scan(weights.row(q), queries.row(q), &store, &mut single);
                for (i, score) in single.iter().enumerate() {
                    assert_eq!(
                        batch[q * store.len() + i].to_bits(),
                        score.to_bits(),
                        "dim {dim}, query {q}, row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn range_kernels_match_the_corresponding_rows_of_the_full_batch() {
        // The sequential single-tile entry points must reproduce their rows
        // of the full batch bit for bit, for both weight layouts.
        let dim = 5;
        let qcount = 2 * QUERY_TILE + 3;
        let queries = synthetic_store(dim, qcount, 0.5);
        let store = synthetic_store(dim, 41, 9.0);
        let shared: Vec<f64> = (0..dim).map(|i| 0.2 + i as f64 * 0.3).collect();
        let per_query = synthetic_store(dim, qcount, 4.25);
        let (shared, per_query) = (
            QueryWeights::Shared(&shared),
            QueryWeights::PerQuery(&per_query),
        );
        let mut full_shared = vec![f64::NAN; qcount * store.len()];
        filter_scan_batch(shared, &queries, &store, &mut full_shared);
        let mut full_pq = vec![f64::NAN; qcount * store.len()];
        filter_scan_batch(per_query, &queries, &store, &mut full_pq);
        for (start, end) in [(0, 0), (0, 3), (7, QUERY_TILE + 5), (qcount - 1, qcount)] {
            let mut tile = vec![f64::NAN; (end - start) * store.len()];
            filter_scan_range(shared, &queries, start, end, &store, &mut tile);
            assert_eq!(
                tile.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                full_shared[start * store.len()..end * store.len()]
                    .iter()
                    .map(|s| s.to_bits())
                    .collect::<Vec<_>>(),
                "shared weights, range {start}..{end}"
            );
            let mut tile = vec![f64::NAN; (end - start) * store.len()];
            filter_scan_range(per_query, &queries, start, end, &store, &mut tile);
            assert_eq!(
                tile.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                full_pq[start * store.len()..end * store.len()]
                    .iter()
                    .map(|s| s.to_bits())
                    .collect::<Vec<_>>(),
                "per-query weights, range {start}..{end}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn range_kernel_rejects_out_of_bounds_ranges() {
        let queries = FlatVectors::from_rows(vec![vec![0.0]]);
        let store = FlatVectors::from_rows(vec![vec![1.0]]);
        let mut out = vec![0.0; 2];
        filter_scan_range(
            QueryWeights::Shared(&[1.0]),
            &queries,
            0,
            2,
            &store,
            &mut out,
        );
    }

    #[test]
    fn eval_flat_batch_on_empty_query_batch_writes_nothing() {
        let d = WeightedL1::uniform(3);
        let queries = FlatVectors::with_dim(3);
        let store = FlatVectors::from_rows(vec![vec![1.0, 2.0, 3.0]]);
        let mut out: Vec<f64> = Vec::new();
        d.eval_filter_batch(&queries, &store, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn eval_flat_batch_on_empty_store_writes_nothing() {
        let d = WeightedL1::uniform(2);
        let queries = FlatVectors::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let store = FlatVectors::with_dim(2);
        let mut out: Vec<f64> = Vec::new();
        d.eval_filter_batch(&queries, &store, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn eval_flat_batch_handles_zero_dimensional_query_buffers() {
        // dim = 0 on both sides: every score is the empty sum, including for
        // batches wider than one tile.
        let d = WeightedL1::new(Vec::new());
        let mut queries = FlatVectors::with_dim(0);
        let mut store = FlatVectors::with_dim(0);
        for _ in 0..QUERY_TILE + 3 {
            queries.push(&[]);
        }
        for _ in 0..5 {
            store.push(&[]);
        }
        let mut out = vec![f64::NAN; queries.len() * store.len()];
        d.eval_filter_batch(&queries, &store, &mut out);
        assert!(out.iter().all(|s| *s == 0.0));
    }

    #[test]
    #[should_panic(expected = "one output slot per (query, row) pair")]
    fn eval_flat_batch_rejects_wrong_output_length() {
        let d = WeightedL1::uniform(2);
        let queries = FlatVectors::from_rows(vec![vec![0.0, 0.0]]);
        let store = FlatVectors::from_rows(vec![vec![1.0, 1.0], vec![2.0, 2.0]]);
        let mut out = vec![0.0; 3];
        d.eval_filter_batch(&queries, &store, &mut out);
    }

    #[test]
    fn u8_quantization_decodes_within_half_a_grid_step() {
        let dim = 5;
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|r| {
                (0..dim)
                    .map(|j| ((r * dim + j) as f64).sin() * 13.0)
                    .collect()
            })
            .collect();
        let store = FlatStore::<u8>::from_rows_with_dim(dim, rows.clone());
        let params = store.params().clone();
        for (i, row) in rows.iter().enumerate() {
            let decoded = store.decode_row(i);
            for (j, (&v, &d)) in row.iter().zip(&decoded).enumerate() {
                let tol = params.scale[j] / 2.0 + 1e-12;
                assert!(
                    (v - d).abs() <= tol,
                    "row {i}, coord {j}: |{v} - {d}| > {tol}"
                );
            }
        }
    }

    #[test]
    fn u8_constant_coordinates_decode_exactly() {
        // A constant coordinate has scale 0: every level decodes to min.
        let rows = vec![vec![3.5, 1.0], vec![3.5, 2.0], vec![3.5, 0.0]];
        let store = FlatStore::<u8>::from_rows_with_dim(2, rows);
        assert_eq!(store.params().scale[0], 0.0);
        for i in 0..store.len() {
            assert_eq!(store.decode_row(i)[0], 3.5);
        }
    }

    #[test]
    fn u8_push_saturates_outside_the_fitted_range() {
        let mut store = FlatStore::<u8>::from_rows_with_dim(1, vec![vec![0.0], vec![10.0]]);
        store.push(&[-100.0]);
        store.push(&[100.0]);
        assert_eq!(store.decode_row(2)[0], 0.0);
        assert_eq!(store.decode_row(3)[0], 10.0);
    }

    /// Decode-path kernels on a lossy backend must equal "decode the row,
    /// then run the canonical reduction" bit for bit, for both the
    /// single-query scan and the tiled batch kernel.
    fn assert_backend_kernels_match_decoded_rows<E: FilterElem>() {
        for dim in [1, 3, 4, 5, 8, 67] {
            let weights: Vec<f64> = (0..dim).map(|i| 0.2 + (i % 5) as f64 * 0.37).collect();
            let d = WeightedL1::new(weights.clone());
            let rows: Vec<Vec<f64>> = (0..QUERY_TILE + 9)
                .map(|r| {
                    (0..dim)
                        .map(|i| ((r * dim + i) as f64).cos() * 9.0)
                        .collect()
                })
                .collect();
            let store = FlatStore::<E>::from_rows_with_dim(dim, rows);
            let queries = synthetic_store(dim, 2 * QUERY_TILE + 3, 0.75);
            let mut batch = vec![f64::NAN; queries.len() * store.len()];
            d.eval_filter_batch(&queries, &store, &mut batch);
            let mut single = vec![f64::NAN; store.len()];
            for q in 0..queries.len() {
                d.eval_filter(queries.row(q), &store, &mut single);
                for (i, score) in single.iter().enumerate() {
                    let reference =
                        weighted_l1_row(&d.weights, queries.row(q), &store.decode_row(i));
                    assert_eq!(
                        score.to_bits(),
                        reference.to_bits(),
                        "{} eval_filter: dim {dim}, query {q}, row {i}",
                        E::NAME
                    );
                    assert_eq!(
                        batch[q * store.len() + i].to_bits(),
                        reference.to_bits(),
                        "{} eval_filter_batch: dim {dim}, query {q}, row {i}",
                        E::NAME
                    );
                }
            }
        }
    }

    #[test]
    fn f32_kernels_score_exactly_the_decoded_rows() {
        assert_backend_kernels_match_decoded_rows::<f32>();
    }

    #[test]
    fn lossy_backends_handle_empty_and_zero_dimensional_stores() {
        fn check<E: FilterElem>() {
            // Empty store with explicit dim.
            let store = FlatStore::<E>::with_dim(3);
            let mut out: Vec<f64> = Vec::new();
            WeightedL1::uniform(3).eval_filter(&[1.0, 2.0, 3.0], &store, &mut out);
            assert!(out.is_empty(), "{}", E::NAME);
            // dim-0 rows: every distance is the empty sum.
            let mut store = FlatStore::<E>::with_dim(0);
            store.push(&[]);
            store.push(&[]);
            let mut out = vec![f64::NAN; 2];
            WeightedL1::new(Vec::new()).eval_filter(&[], &store, &mut out);
            assert_eq!(out, vec![0.0, 0.0], "{}", E::NAME);
            assert!(store.decode_row(1).is_empty(), "{}", E::NAME);
            // push after the empty constructor keeps the dimensionality.
            let mut store = FlatStore::<E>::with_dim(2);
            store.push(&[0.25, 0.5]);
            store.push(&[1.0, 0.0]);
            store.swap_remove(0);
            assert_eq!(store.len(), 1);
            assert_eq!(store.dim(), 2);
        }
        check::<f32>();
        check::<u8>();
    }

    #[test]
    fn backend_names_and_sizes_are_reported() {
        assert_eq!(<f64 as FilterElem>::NAME, "f64");
        assert_eq!(<f32 as FilterElem>::NAME, "f32");
        assert_eq!(<u8 as FilterElem>::NAME, "u8");
        assert_eq!(<f64 as FilterElem>::BYTES, 8);
        assert_eq!(<f32 as FilterElem>::BYTES, 4);
        assert_eq!(<u8 as FilterElem>::BYTES, 1);
    }

    #[test]
    #[should_panic(expected = "one weight row per query")]
    fn per_query_batch_rejects_mismatched_weight_rows() {
        let queries = FlatVectors::from_rows(vec![vec![0.0], vec![1.0]]);
        let weights = FlatVectors::from_rows(vec![vec![1.0]]);
        let store = FlatVectors::from_rows(vec![vec![2.0]]);
        let mut out = vec![0.0; 2];
        filter_scan_batch(QueryWeights::PerQuery(&weights), &queries, &store, &mut out);
    }

    #[test]
    fn snapshot_tags_are_distinct() {
        let tags = [
            <f64 as FilterElem>::SNAPSHOT_TAG,
            <f32 as FilterElem>::SNAPSHOT_TAG,
            <u8 as FilterElem>::SNAPSHOT_TAG,
        ];
        let mut unique = tags.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), tags.len());
    }

    #[test]
    fn elem_bytes_round_trip_bitwise_including_non_finite() {
        let f64s = [0.0, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let mut bytes = Vec::new();
        f64::elems_to_bytes(&f64s, &mut bytes);
        assert_eq!(bytes.len(), f64s.len() * 8);
        let back = f64::elems_from_bytes(&bytes).unwrap();
        for (a, b) in f64s.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        let f32s = [0.0f32, -0.0, 2.25, f32::INFINITY, f32::NAN];
        let mut bytes = Vec::new();
        f32::elems_to_bytes(&f32s, &mut bytes);
        assert_eq!(bytes.len(), f32s.len() * 4);
        let back = f32::elems_from_bytes(&bytes).unwrap();
        for (a, b) in f32s.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        let u8s = [0u8, 1, 127, 255];
        let mut bytes = Vec::new();
        u8::elems_to_bytes(&u8s, &mut bytes);
        assert_eq!(u8::elems_from_bytes(&bytes).unwrap(), u8s.to_vec());
    }

    #[test]
    fn elem_bytes_reject_ragged_lengths() {
        assert!(f64::elems_from_bytes(&[0u8; 9]).is_none());
        assert!(f32::elems_from_bytes(&[0u8; 6]).is_none());
        // u8 accepts any length (1 byte per element).
        assert_eq!(u8::elems_from_bytes(&[7u8; 3]).unwrap(), vec![7u8; 3]);
    }

    #[test]
    fn params_bytes_round_trip_and_validate() {
        // Exact backends: zero-sized, empty image only.
        let mut bytes = Vec::new();
        f64::params_to_bytes(&(), &mut bytes);
        assert!(bytes.is_empty());
        assert!(<f64 as FilterElem>::params_from_bytes(4, &[]).is_some());
        assert!(<f64 as FilterElem>::params_from_bytes(4, &[0u8]).is_none());
        assert!(<f32 as FilterElem>::params_from_bytes(0, &[]).is_some());

        // u8: the affine grid round-trips bit for bit.
        let params = u8::fit(2, &[vec![-3.5, 0.25], vec![12.0, 0.25], vec![4.0, 0.25]]);
        let mut bytes = Vec::new();
        u8::params_to_bytes(&params, &mut bytes);
        assert_eq!(bytes.len(), 2 * 2 * 8);
        let back = <u8 as FilterElem>::params_from_bytes(2, &bytes).unwrap();
        assert_eq!(back, params);
        // Wrong dimensionality for the byte length: rejected.
        assert!(<u8 as FilterElem>::params_from_bytes(3, &bytes).is_none());
        assert!(<u8 as FilterElem>::params_from_bytes(2, &bytes[..24]).is_none());
    }

    #[test]
    fn from_stored_parts_round_trips_and_validates() {
        fn check<E: FilterElem>() {
            let rows = vec![vec![0.5, -2.0, 7.25], vec![3.0, 0.0, -1.5]];
            let store = FlatStore::<E>::from_rows_with_dim(3, rows);
            let mut bytes = Vec::new();
            E::elems_to_bytes(store.as_slice(), &mut bytes);
            let data = E::elems_from_bytes(&bytes).unwrap();
            let back =
                FlatStore::<E>::from_stored_parts(3, 2, store.params().clone(), data).unwrap();
            assert_eq!(back, store, "{}", E::NAME);
            // Element count must equal dim * rows.
            let data = E::elems_from_bytes(&bytes).unwrap();
            assert!(
                FlatStore::<E>::from_stored_parts(3, 3, store.params().clone(), data).is_none(),
                "{}",
                E::NAME
            );
        }
        check::<f64>();
        check::<f32>();
        check::<u8>();
    }
}
