//! Constrained Dynamic Time Warping (cDTW) over multi-dimensional time
//! series.
//!
//! The paper's second experimental dataset is a time-series database whose
//! exact distance is *"constrained Dynamic Time Warping, with a warping
//! length δ = 10% of the total length of the shortest sequence under
//! comparison"* (Section 9, following Vlachos et al. 2003). cDTW with a
//! Sakoe–Chiba band is symmetric and non-negative but violates the triangle
//! inequality, which is precisely why metric indexing fails and an
//! embedding-based approach is needed.
//!
//! The implementation here supports multi-dimensional sequences of unequal
//! length, an absolute or relative band width, and Euclidean,
//! squared-Euclidean and Manhattan local costs. Samples are stored in one
//! contiguous row-major buffer. [`ConstrainedDtw::eval`] runs a rolling
//! dynamic program over one row of accumulated costs, as long as the longer
//! series plus one, and a cost buffer as wide as the band: memory is
//! `O(max(n, m))`, time `O(min(n, m) · band)`.

use crate::traits::{DistanceMeasure, MetricProperties};

/// A multi-dimensional time series: sample `t` is a point in `R^dim`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Row-major samples: sample `t` is `values[t * dim..(t + 1) * dim]`.
    values: Vec<f64>,
    dim: usize,
}

impl TimeSeries {
    /// Build a series from per-timestep samples.
    ///
    /// # Panics
    /// Panics if the series is empty, the samples have inconsistent
    /// dimensionality, or a sample is not finite.
    pub fn new(values: Vec<Vec<f64>>) -> Self {
        assert!(
            !values.is_empty(),
            "a time series must have at least one sample"
        );
        let dim = values[0].len();
        assert!(dim > 0, "samples must have at least one dimension");
        assert!(
            values.iter().all(|v| v.len() == dim),
            "all samples of a time series must share the same dimensionality"
        );
        Self::from_flat(values.concat(), dim)
    }

    /// Build a one-dimensional series from scalar samples.
    ///
    /// # Panics
    /// As [`TimeSeries::new`].
    pub fn univariate(samples: impl IntoIterator<Item = f64>) -> Self {
        Self::from_flat(samples.into_iter().collect(), 1)
    }

    /// A series over the row-major `values` of `dim`-dimensional samples.
    /// Finite samples keep every DTW cell a non-negative number, which
    /// [`ConstrainedDtw::eval`] relies on.
    fn from_flat(values: Vec<f64>, dim: usize) -> Self {
        assert!(
            !values.is_empty(),
            "a time series must have at least one sample"
        );
        assert!(
            values.iter().all(|x| x.is_finite()),
            "time series samples must be finite"
        );
        Self { values, dim }
    }

    /// Number of time steps.
    pub fn len(&self) -> usize {
        self.values.len() / self.dim
    }

    /// `true` if the series has no samples (never constructible via `new`).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Dimensionality of each sample.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The sample at time `t`.
    pub fn sample(&self, t: usize) -> &[f64] {
        &self.values[t * self.dim..(t + 1) * self.dim]
    }

    /// All samples, in time order.
    pub fn samples(&self) -> std::slice::ChunksExact<'_, f64> {
        self.values.chunks_exact(self.dim)
    }

    /// Subtract the per-dimension mean, as the paper does: *"The series were
    /// normalized by subtracting the average value in each dimension."*
    pub fn mean_normalized(&self) -> Self {
        let n = self.len() as f64;
        let mut mean = vec![0.0; self.dim];
        for v in self.samples() {
            for (m, x) in mean.iter_mut().zip(v) {
                *m += x;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let values = self
            .samples()
            .flat_map(|v| v.iter().zip(&mean).map(|(x, m)| x - m))
            .collect();
        Self::from_flat(values, self.dim)
    }
}

/// How the Sakoe–Chiba band width is specified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BandWidth {
    /// A fixed number of off-diagonal cells.
    Absolute(usize),
    /// A fraction of the length of the *shorter* sequence (the paper uses
    /// `0.10`).
    Relative(f64),
    /// No constraint (full DTW).
    Unconstrained,
}

impl BandWidth {
    fn resolve(self, shorter: usize, longer: usize) -> usize {
        // The band must at least cover the length difference, otherwise the
        // end cell (n-1, m-1) is unreachable.
        let min_needed = longer - shorter;
        let requested = match self {
            BandWidth::Absolute(w) => w,
            BandWidth::Relative(frac) => {
                assert!(
                    (0.0..=1.0).contains(&frac),
                    "relative band must be in [0, 1]"
                );
                (frac * shorter as f64).round() as usize
            }
            BandWidth::Unconstrained => longer,
        };
        requested.max(min_needed).min(longer)
    }
}

/// How the local (per-cell) cost between two samples is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalCost {
    /// Euclidean distance between samples.
    Euclidean,
    /// Squared Euclidean distance between samples (common in the time-series
    /// literature; emphasises large deviations).
    SquaredEuclidean,
    /// Manhattan distance between samples.
    Manhattan,
}

impl LocalCost {
    #[inline]
    fn eval(self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            LocalCost::Euclidean => a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt(),
            LocalCost::SquaredEuclidean => {
                a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>()
            }
            LocalCost::Manhattan => a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>(),
        }
    }
}

/// [`banded_dtw`] over row-major samples of a dimension `D` fixed at
/// compile time, so each local cost unrolls into straight-line code.
/// [`ConstrainedDtw::eval_within`] uses it for two-dimensional samples, the
/// time-series generator's default, where it is about a third faster than
/// the runtime-dimension path; every other dimension takes that path.
fn banded_dtw_dim<const D: usize>(
    cost: LocalCost,
    rows: &[f64],
    cols: &[f64],
    band: usize,
    cutoff: f64,
) -> f64 {
    let (rows, _) = rows.as_chunks::<D>();
    let (cols, _) = cols.as_chunks::<D>();
    banded_dtw(rows.len(), cols.len(), band, cutoff, |t, lo, out| {
        for (o, b) in out.iter_mut().zip(&cols[lo..]) {
            *o = cost.eval(&rows[t], b);
        }
    })
}

/// The cDTW recurrence `D(i, j) = cost(i, j) + min(D(i-1, j), D(i, j-1),
/// D(i-1, j-1))` over an `n × m` grid (`n ≤ m`) restricted to the band
/// `|i - j| ≤ band` (`band ≥ m - n` keeps the corner reachable), stopping
/// early as [`ConstrainedDtw::eval_within`] describes. `row_costs(t, lo,
/// out)` writes the local costs of row sample `t` against column samples
/// `lo, lo + 1, ...` into `out`.
///
/// Each row first computes its costs, off the dependency chain. The cell
/// loop then evaluates `min(c + min(up, diag), c + left)`, so only one add
/// and one min follow the previous cell. This equals `c + min(up, diag,
/// left)` bit for bit: rounding is monotone, so adding `c` commutes with
/// `min`, and every cell is a number `≥ +0` or `+∞`.
#[inline(always)]
fn banded_dtw(
    n: usize,
    m: usize,
    band: usize,
    cutoff: f64,
    mut row_costs: impl FnMut(usize, usize, &mut [f64]),
) -> f64 {
    // `acc[j]` holds `D(i, j)` of the latest row whose band covered column
    // `j`. Bands only move right, so the columns right of the previous
    // band still hold their initial `+∞`, and the columns left of the
    // current band are never read again.
    let mut acc = vec![f64::INFINITY; m + 1];
    acc[0] = 0.0;
    let mut costs = vec![0.0; m.min(2 * band + 1)];
    for i in 1..=n {
        let lo = i.saturating_sub(band).max(1);
        let hi = (i + band).min(m);
        let costs = &mut costs[..=hi - lo];
        row_costs(i - 1, lo - 1, costs);
        let mut diag = acc[lo - 1];
        // `D(i, lo - 1)` lies left of the band, or below the origin.
        let mut left = f64::INFINITY;
        let mut row_min = f64::INFINITY;
        for (cell, &c) in acc[lo..=hi].iter_mut().zip(costs.iter()) {
            let up = *cell;
            let d = min(c + min(up, diag), c + left);
            diag = up;
            *cell = d;
            left = d;
            row_min = min(row_min, d);
        }
        // Column 0 holds only the origin `D(0, 0) = 0`; below row 0 it is
        // the `+∞` sentinel.
        acc[0] = f64::INFINITY;
        if row_min > cutoff {
            return row_min;
        }
    }
    acc[m]
}

/// `a.min(b)` as a plain compare-select: DTW cells are never NaN, so the
/// NaN handling of [`f64::min`] is not needed.
#[inline(always)]
fn min(a: f64, b: f64) -> f64 {
    if b < a {
        b
    } else {
        a
    }
}

/// Constrained Dynamic Time Warping distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstrainedDtw {
    /// Sakoe–Chiba band specification.
    pub band: BandWidth,
    /// Local cost between aligned samples.
    pub local_cost: LocalCost,
}

impl Default for ConstrainedDtw {
    fn default() -> Self {
        Self::paper()
    }
}

impl ConstrainedDtw {
    /// The configuration used in the paper: a Sakoe–Chiba band of 10% of the
    /// shorter sequence, Euclidean local cost.
    pub fn paper() -> Self {
        Self {
            band: BandWidth::Relative(0.10),
            local_cost: LocalCost::Euclidean,
        }
    }

    /// Unconstrained (full) DTW.
    pub fn unconstrained() -> Self {
        Self {
            band: BandWidth::Unconstrained,
            local_cost: LocalCost::Euclidean,
        }
    }

    /// DTW with an absolute band width.
    pub fn with_absolute_band(width: usize) -> Self {
        Self {
            band: BandWidth::Absolute(width),
            local_cost: LocalCost::Euclidean,
        }
    }

    /// Replace the local cost function.
    pub fn with_local_cost(mut self, cost: LocalCost) -> Self {
        self.local_cost = cost;
        self
    }

    /// Compute the cDTW distance between two series.
    ///
    /// The shorter series always indexes the rows of the dynamic program so
    /// the band is measured against it, matching *"10% of the total length of
    /// the shortest sequence under comparison"*.
    ///
    /// # Panics
    /// Panics if the series have different dimensionality.
    pub fn eval(&self, a: &TimeSeries, b: &TimeSeries) -> f64 {
        self.eval_within(a, b, f64::INFINITY)
    }

    /// [`Self::eval`] that gives up once the distance must exceed `cutoff`:
    /// the exact distance when it is at most `cutoff`, otherwise a lower
    /// bound of it that is greater than `cutoff`. Every warping path
    /// crosses every row of the dynamic program and accumulated costs never
    /// decrease along a path, so the program stops at the first row whose
    /// every cell exceeds `cutoff` and returns that row's minimum.
    ///
    /// # Panics
    /// As [`Self::eval`].
    fn eval_within(&self, a: &TimeSeries, b: &TimeSeries, cutoff: f64) -> f64 {
        assert_eq!(
            a.dim(),
            b.dim(),
            "DTW requires series of equal dimensionality ({} vs {})",
            a.dim(),
            b.dim()
        );
        // Ensure `rows` is the shorter series: DTW is symmetric in the two
        // series, so swapping is safe and keeps the band semantics.
        let (rows, cols) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        let band = self.band.resolve(rows.len(), cols.len());
        let cost = self.local_cost;
        let (r, c) = (rows.values.as_slice(), cols.values.as_slice());
        match rows.dim {
            2 => banded_dtw_dim::<2>(cost, r, c, band, cutoff),
            dim => banded_dtw(rows.len(), cols.len(), band, cutoff, |t, lo, out| {
                let a = rows.sample(t);
                for (o, b) in out.iter_mut().zip(c[lo * dim..].chunks_exact(dim)) {
                    *o = cost.eval(a, b);
                }
            }),
        }
    }

    /// Compute the full warping path (sequence of aligned index pairs) in
    /// addition to the distance. Used in tests and diagnostics; `O(n·m)`
    /// memory.
    pub fn eval_with_path(&self, a: &TimeSeries, b: &TimeSeries) -> (f64, Vec<(usize, usize)>) {
        assert_eq!(
            a.dim(),
            b.dim(),
            "DTW requires series of equal dimensionality"
        );
        let swapped = a.len() > b.len();
        let (rows, cols) = if swapped { (b, a) } else { (a, b) };
        let n = rows.len();
        let m = cols.len();
        let band = self.band.resolve(n, m);
        let inf = f64::INFINITY;
        let mut dp = vec![vec![inf; m + 1]; n + 1];
        dp[0][0] = 0.0;
        for i in 1..=n {
            let lo = i.saturating_sub(band).max(1);
            let hi = (i + band).min(m);
            for j in lo..=hi {
                let cost = self.local_cost.eval(rows.sample(i - 1), cols.sample(j - 1));
                let best = dp[i - 1][j].min(dp[i][j - 1]).min(dp[i - 1][j - 1]);
                if best.is_finite() {
                    dp[i][j] = cost + best;
                }
            }
        }
        // Backtrack.
        let mut path = Vec::new();
        let (mut i, mut j) = (n, m);
        while i > 0 && j > 0 {
            path.push((i - 1, j - 1));
            let diag = dp[i - 1][j - 1];
            let up = dp[i - 1][j];
            let left = dp[i][j - 1];
            if diag <= up && diag <= left {
                i -= 1;
                j -= 1;
            } else if up <= left {
                i -= 1;
            } else {
                j -= 1;
            }
        }
        path.reverse();
        if swapped {
            for p in &mut path {
                *p = (p.1, p.0);
            }
        }
        (dp[n][m], path)
    }
}

impl DistanceMeasure<TimeSeries> for ConstrainedDtw {
    fn distance(&self, a: &TimeSeries, b: &TimeSeries) -> f64 {
        self.eval(a, b)
    }
    fn distance_within(&self, a: &TimeSeries, b: &TimeSeries, cutoff: f64) -> f64 {
        self.eval_within(a, b, cutoff)
    }
    fn properties(&self) -> MetricProperties {
        MetricProperties::SymmetricNonMetric
    }
    fn name(&self) -> &'static str {
        "constrained-dtw"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(vals: &[f64]) -> TimeSeries {
        TimeSeries::univariate(vals.iter().copied())
    }

    #[test]
    fn identical_series_have_zero_distance() {
        let s = series(&[1.0, 2.0, 3.0, 2.0, 1.0]);
        assert_eq!(ConstrainedDtw::paper().eval(&s, &s), 0.0);
        assert_eq!(ConstrainedDtw::unconstrained().eval(&s, &s), 0.0);
    }

    #[test]
    fn dtw_is_symmetric() {
        let a = series(&[0.0, 1.0, 2.0, 3.0, 2.0, 1.0]);
        let b = series(&[0.0, 0.0, 1.0, 2.0, 3.0, 3.0, 2.0, 1.0]);
        let d = ConstrainedDtw::paper();
        assert!((d.eval(&a, &b) - d.eval(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn warping_absorbs_time_shift() {
        // A shifted copy of a pattern should be much closer under DTW than
        // under the lock-step (Euclidean) alignment.
        let a = series(&[0.0, 0.0, 1.0, 5.0, 1.0, 0.0, 0.0, 0.0]);
        let b = series(&[0.0, 0.0, 0.0, 1.0, 5.0, 1.0, 0.0, 0.0]);
        let lockstep: f64 = a
            .samples()
            .zip(b.samples())
            .map(|(x, y)| (x[0] - y[0]).abs())
            .sum();
        let dtw = ConstrainedDtw::unconstrained().eval(&a, &b);
        assert!(dtw < lockstep, "dtw {dtw} should beat lockstep {lockstep}");
        assert!(
            dtw <= 1e-12,
            "a single-step shift should warp away entirely, got {dtw}"
        );
    }

    #[test]
    fn band_zero_equals_lockstep_for_equal_lengths() {
        let a = series(&[1.0, 3.0, 2.0, 5.0]);
        let b = series(&[0.0, 1.0, 4.0, 4.0]);
        let banded = ConstrainedDtw::with_absolute_band(0).eval(&a, &b);
        let lockstep: f64 = a
            .samples()
            .zip(b.samples())
            .map(|(x, y)| (x[0] - y[0]).abs())
            .sum();
        assert!((banded - lockstep).abs() < 1e-12);
    }

    #[test]
    fn narrower_band_never_decreases_distance() {
        let a = series(&[0.0, 1.0, 2.0, 3.0, 4.0, 3.0, 2.0, 1.0, 0.0, 1.0]);
        let b = series(&[0.0, 0.0, 1.0, 3.0, 4.0, 4.0, 2.0, 2.0, 1.0, 0.0]);
        // Widening the band can only help the warping path, so the distance
        // must be non-increasing as the band grows.
        let mut last = f64::INFINITY;
        for w in 0..10 {
            let d = ConstrainedDtw::with_absolute_band(w).eval(&a, &b);
            assert!(d <= last + 1e-12, "band {w} gave {d} > {last}");
            last = d;
        }
    }

    #[test]
    fn unequal_lengths_resolve_band_to_reach_corner() {
        let a = series(&[1.0, 2.0, 3.0]);
        let b = series(&[1.0, 1.5, 2.0, 2.5, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0]);
        let d = ConstrainedDtw::paper().eval(&a, &b);
        assert!(d.is_finite());
    }

    #[test]
    fn multidimensional_local_cost() {
        let a = TimeSeries::new(vec![vec![0.0, 0.0], vec![1.0, 1.0]]);
        let b = TimeSeries::new(vec![vec![0.0, 0.0], vec![1.0, 2.0]]);
        let d = ConstrainedDtw::unconstrained().eval(&a, &b);
        // Optimal alignment matches both warped pairs: cost 0 + min(1, ...)
        assert!(d > 0.0 && d <= 1.0 + 1e-12);
        let sq = ConstrainedDtw::unconstrained()
            .with_local_cost(LocalCost::SquaredEuclidean)
            .eval(&a, &b);
        assert!(sq > 0.0);
    }

    #[test]
    fn path_endpoints_are_corners() {
        let a = series(&[0.0, 1.0, 2.0, 3.0]);
        let b = series(&[0.0, 2.0, 3.0]);
        let (d, path) = ConstrainedDtw::unconstrained().eval_with_path(&a, &b);
        assert!(d.is_finite());
        assert_eq!(path.first().copied(), Some((0, 0)));
        assert_eq!(path.last().copied(), Some((3, 2)));
        // The rolling-array evaluation must agree with the full table.
        let rolled = ConstrainedDtw::unconstrained().eval(&a, &b);
        assert!((rolled - d).abs() < 1e-12);
    }

    #[test]
    fn triangle_inequality_can_fail() {
        // Documented non-metric behaviour (the paper's premise): DTW can
        // violate the triangle inequality because a short intermediate series
        // can warp cheaply towards both endpoints.
        let a = series(&[0.0, 0.0, 0.0]);
        let b = series(&[2.0, 2.0, 2.0]);
        let c = series(&[0.0, 2.0]);
        let d = ConstrainedDtw::unconstrained();
        let ab = d.eval(&a, &b);
        let ac = d.eval(&a, &c);
        let cb = d.eval(&c, &b);
        assert!(
            ab > ac + cb + 1e-9,
            "expected a triangle violation: d(a,b)={ab}, d(a,c)+d(c,b)={}",
            ac + cb
        );
    }

    #[test]
    fn mean_normalization_centers_each_dimension() {
        let s = TimeSeries::new(vec![vec![1.0, 10.0], vec![3.0, 30.0]]);
        let n = s.mean_normalized();
        let sum0: f64 = n.samples().map(|v| v[0]).sum();
        let sum1: f64 = n.samples().map(|v| v[1]).sum();
        assert!(sum0.abs() < 1e-12);
        assert!(sum1.abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal dimensionality")]
    fn rejects_mismatched_dimensionality() {
        let a = TimeSeries::new(vec![vec![0.0, 0.0]]);
        let b = TimeSeries::univariate([0.0]);
        let _ = ConstrainedDtw::paper().eval(&a, &b);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn rejects_empty_series() {
        let _ = TimeSeries::new(vec![]);
    }
}
