//! LB_Keogh-style lower bounds for constrained DTW.
//!
//! The time-series indexing method the paper compares its speed-up against
//! (Vlachos et al. [32], building on Keogh's exact DTW indexing [20]) prunes
//! the search space with cheap *lower bounds* of the constrained DTW
//! distance before running the expensive dynamic program. This module
//! implements the classic envelope-based LB_Keogh bound for multi-dimensional
//! series, which serves two roles in the reproduction:
//!
//! * it provides the filter-and-refine *comparator baseline* whose speed-up
//!   (~5× in the paper's account of [32]) the speed-up experiment contrasts
//!   with the embedding-based approach, and
//! * its lower-bound property is a strong correctness oracle for the DTW
//!   implementation itself (checked by property tests).
//!
//! The bound only applies to equal-length series under the `Manhattan` /
//! `Euclidean`-per-sample local costs with a Sakoe–Chiba band; for unequal
//! lengths we fall back to the (weaker but always valid) trivial bound 0.

use crate::dtw::{BandWidth, TimeSeries};
use crate::traits::DistanceMeasure;

/// The upper/lower envelope of a series under a Sakoe–Chiba band.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// `upper[t][d]` = max of dimension `d` over the band window around `t`.
    pub upper: Vec<Vec<f64>>,
    /// `lower[t][d]` = min of dimension `d` over the band window around `t`.
    pub lower: Vec<Vec<f64>>,
}

impl Envelope {
    /// Build the envelope of `series` for a band of `radius` samples.
    pub fn build(series: &TimeSeries, radius: usize) -> Self {
        let n = series.len();
        let dim = series.dim();
        let mut upper = vec![vec![f64::NEG_INFINITY; dim]; n];
        let mut lower = vec![vec![f64::INFINITY; dim]; n];
        for t in 0..n {
            let from = t.saturating_sub(radius);
            let to = (t + radius).min(n - 1);
            for s in from..=to {
                for d in 0..dim {
                    let v = series.sample(s)[d];
                    if v > upper[t][d] {
                        upper[t][d] = v;
                    }
                    if v < lower[t][d] {
                        lower[t][d] = v;
                    }
                }
            }
        }
        Self { upper, lower }
    }
}

/// LB_Keogh lower bound of the constrained DTW distance (with per-sample
/// Manhattan local cost) between `query` and a series whose envelope has been
/// precomputed.
///
/// For every time step, any warping path within the band must match the query
/// sample against *some* sample inside the envelope window, so the distance
/// to the envelope is a valid per-step lower bound; summing over steps lower
/// bounds the total cDTW cost.
///
/// Returns 0 (the trivial bound) if the lengths differ.
pub fn lb_keogh(query: &TimeSeries, envelope: &Envelope) -> f64 {
    if query.len() != envelope.upper.len() || query.dim() != envelope.upper[0].len() {
        return 0.0;
    }
    let mut total = 0.0;
    for t in 0..query.len() {
        for d in 0..query.dim() {
            let v = query.sample(t)[d];
            let hi = envelope.upper[t][d];
            let lo = envelope.lower[t][d];
            if v > hi {
                total += v - hi;
            } else if v < lo {
                total += lo - v;
            }
        }
    }
    total
}

/// A filter-and-refine 1-NN search in the style of Keogh / Vlachos et al.:
/// series are pruned with LB_Keogh and the exact cDTW is evaluated only when
/// the lower bound cannot rule a candidate out. Returns the index of the
/// nearest neighbor and the number of exact cDTW evaluations spent.
///
/// # Panics
/// Panics if the database is empty.
pub fn lb_keogh_nearest_neighbor(
    query: &TimeSeries,
    database: &[TimeSeries],
    envelopes: &[Envelope],
    dtw: &crate::dtw::ConstrainedDtw,
) -> (usize, usize) {
    assert!(!database.is_empty(), "cannot search an empty database");
    assert_eq!(
        database.len(),
        envelopes.len(),
        "one envelope per database series"
    );
    // Order candidates by increasing lower bound so good candidates tighten
    // the best-so-far early and prune the rest.
    let mut order: Vec<(usize, f64)> = envelopes
        .iter()
        .enumerate()
        .map(|(i, env)| (i, lb_keogh(query, env)))
        .collect();
    order.sort_by(|a, b| a.1.total_cmp(&b.1));

    let mut best = usize::MAX;
    let mut best_dist = f64::INFINITY;
    let mut exact_evaluations = 0usize;
    for (i, bound) in order {
        if bound >= best_dist {
            // Lower bounds are sorted, so nothing later can win either —
            // but only when lengths matched (bound > 0 is meaningful);
            // continue scanning to stay correct for the fallback bound 0.
            if bound > 0.0 {
                break;
            }
        }
        // A candidate worse than the best so far is abandoned part-way.
        let d = dtw.distance_within(query, &database[i], best_dist);
        exact_evaluations += 1;
        if d < best_dist {
            best_dist = d;
            best = i;
        }
    }
    (best, exact_evaluations)
}

/// The Sakoe–Chiba radius (in samples) implied by a [`BandWidth`] for a
/// series of the given length.
pub fn band_radius(band: BandWidth, length: usize) -> usize {
    match band {
        BandWidth::Absolute(w) => w,
        BandWidth::Relative(frac) => (frac * length as f64).round() as usize,
        BandWidth::Unconstrained => length,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtw::{ConstrainedDtw, LocalCost};

    fn series(vals: &[f64]) -> TimeSeries {
        TimeSeries::univariate(vals.iter().copied())
    }

    #[test]
    fn envelope_brackets_the_series() {
        let s = series(&[0.0, 3.0, 1.0, 5.0, 2.0]);
        let env = Envelope::build(&s, 1);
        for t in 0..s.len() {
            assert!(env.lower[t][0] <= s.sample(t)[0]);
            assert!(env.upper[t][0] >= s.sample(t)[0]);
        }
        // Radius 0 collapses the envelope onto the series.
        let env0 = Envelope::build(&s, 0);
        for t in 0..s.len() {
            assert_eq!(env0.lower[t][0], s.sample(t)[0]);
            assert_eq!(env0.upper[t][0], s.sample(t)[0]);
        }
    }

    #[test]
    fn lb_keogh_lower_bounds_constrained_dtw() {
        let radius = 2;
        let dtw = ConstrainedDtw::with_absolute_band(radius).with_local_cost(LocalCost::Manhattan);
        let a = series(&[0.0, 1.0, 4.0, 2.0, 1.0, 0.0, 3.0, 5.0]);
        let b = series(&[1.0, 0.0, 2.0, 4.0, 2.0, 1.0, 5.0, 3.0]);
        let env_b = Envelope::build(&b, radius);
        let bound = lb_keogh(&a, &env_b);
        let exact = dtw.eval(&a, &b);
        assert!(
            bound <= exact + 1e-9,
            "LB_Keogh {bound} exceeds cDTW {exact}"
        );
        assert!(bound >= 0.0);
    }

    #[test]
    fn lb_keogh_is_zero_for_identical_series() {
        let a = series(&[1.0, 2.0, 3.0, 2.0]);
        let env = Envelope::build(&a, 1);
        assert_eq!(lb_keogh(&a, &env), 0.0);
    }

    #[test]
    fn lb_keogh_falls_back_to_zero_for_unequal_lengths() {
        let a = series(&[1.0, 2.0, 3.0]);
        let b = series(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let env = Envelope::build(&b, 1);
        assert_eq!(lb_keogh(&a, &env), 0.0);
    }

    #[test]
    fn nearest_neighbor_search_is_exact_and_prunes() {
        let radius = 1;
        let dtw = ConstrainedDtw::with_absolute_band(radius).with_local_cost(LocalCost::Manhattan);
        let database: Vec<TimeSeries> = (0..20)
            .map(|i| series(&[i as f64, i as f64 + 1.0, i as f64 + 2.0, i as f64 + 1.0]))
            .collect();
        let envelopes: Vec<Envelope> = database
            .iter()
            .map(|s| Envelope::build(s, radius))
            .collect();
        let query = series(&[7.2, 8.1, 9.0, 8.3]);

        // Brute force ground truth.
        let brute = (0..database.len())
            .min_by(|&a, &b| {
                dtw.eval(&query, &database[a])
                    .partial_cmp(&dtw.eval(&query, &database[b]))
                    .unwrap()
            })
            .unwrap();
        let (found, exact_used) = lb_keogh_nearest_neighbor(&query, &database, &envelopes, &dtw);
        assert_eq!(found, brute);
        assert!(
            exact_used < database.len(),
            "LB_Keogh should prune at least one exact evaluation, used {exact_used}"
        );
    }

    #[test]
    fn band_radius_resolution() {
        assert_eq!(band_radius(BandWidth::Absolute(3), 100), 3);
        assert_eq!(band_radius(BandWidth::Relative(0.1), 100), 10);
        assert_eq!(band_radius(BandWidth::Unconstrained, 42), 42);
    }
}
