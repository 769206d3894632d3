//! The core [`DistanceMeasure`] abstraction.
//!
//! Every algorithm in this workspace — 1D embeddings, FastMap, BoostMap
//! training, filter-and-refine retrieval — accesses data exclusively through
//! this trait, which is what lets the method apply to *"arbitrary spaces and
//! distance measures"* (paper, Section 2).

use std::sync::Arc;

/// Coarse classification of the mathematical properties of a distance
/// measure.
///
/// The paper stresses that both of its experimental distance measures
/// (Shape Context Distance and constrained Dynamic Time Warping) violate the
/// triangle inequality, which rules out metric-tree indexing and motivates
/// embedding-based retrieval (Section 10). Algorithms in this workspace never
/// *rely* on metric properties, but tests use this classification to decide
/// which axioms to property-check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricProperties {
    /// Satisfies non-negativity, identity of indiscernibles, symmetry and the
    /// triangle inequality.
    Metric,
    /// Symmetric and non-negative but may violate the triangle inequality
    /// (e.g. constrained DTW, shape context distance, chamfer distance).
    SymmetricNonMetric,
    /// Not even symmetric (e.g. Kullback–Leibler divergence, the
    /// query-sensitive distance `D_out` of the paper).
    Asymmetric,
}

impl MetricProperties {
    /// `true` if measures with these properties are symmetric.
    pub fn is_symmetric(self) -> bool {
        !matches!(self, MetricProperties::Asymmetric)
    }

    /// `true` if the triangle inequality is guaranteed.
    pub fn is_metric(self) -> bool {
        matches!(self, MetricProperties::Metric)
    }
}

/// A distance (or dissimilarity) measure over objects of type `O`.
///
/// Implementations must be cheap to share across threads; the evaluation
/// harness computes distance matrices and per-query retrieval in parallel.
///
/// The measure is *not* required to be a metric: the paper explicitly targets
/// non-metric measures such as shape context matching and constrained DTW.
pub trait DistanceMeasure<O: ?Sized>: Send + Sync {
    /// Compute the distance from `a` to `b`.
    ///
    /// For asymmetric measures (see [`MetricProperties::Asymmetric`]) the
    /// first argument plays the role of the query.
    fn distance(&self, a: &O, b: &O) -> f64;

    /// [`Self::distance`] for a caller that only needs distances up to
    /// `cutoff`: the exact distance when it is at most `cutoff`, otherwise
    /// any value greater than `cutoff`. A measure that can tell early that
    /// it will exceed `cutoff` may stop there; the default computes the
    /// exact distance.
    fn distance_within(&self, a: &O, b: &O, cutoff: f64) -> f64 {
        let _ = cutoff;
        self.distance(a, b)
    }

    /// The mathematical properties this measure guarantees.
    fn properties(&self) -> MetricProperties {
        MetricProperties::SymmetricNonMetric
    }

    /// Human-readable name used in experiment reports.
    fn name(&self) -> &'static str {
        "distance"
    }
}

impl<O: ?Sized, D: DistanceMeasure<O> + ?Sized> DistanceMeasure<O> for &D {
    fn distance(&self, a: &O, b: &O) -> f64 {
        (**self).distance(a, b)
    }
    fn distance_within(&self, a: &O, b: &O, cutoff: f64) -> f64 {
        (**self).distance_within(a, b, cutoff)
    }
    fn properties(&self) -> MetricProperties {
        (**self).properties()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

impl<O: ?Sized, D: DistanceMeasure<O> + ?Sized> DistanceMeasure<O> for Arc<D> {
    fn distance(&self, a: &O, b: &O) -> f64 {
        (**self).distance(a, b)
    }
    fn distance_within(&self, a: &O, b: &O, cutoff: f64) -> f64 {
        (**self).distance_within(a, b, cutoff)
    }
    fn properties(&self) -> MetricProperties {
        (**self).properties()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

impl<O: ?Sized, D: DistanceMeasure<O> + ?Sized> DistanceMeasure<O> for Box<D> {
    fn distance(&self, a: &O, b: &O) -> f64 {
        (**self).distance(a, b)
    }
    fn distance_within(&self, a: &O, b: &O, cutoff: f64) -> f64 {
        (**self).distance_within(a, b, cutoff)
    }
    fn properties(&self) -> MetricProperties {
        (**self).properties()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// A distance measure defined by a closure. Convenient for tests and for the
/// toy 2-D example of Figure 1.
pub struct FnDistance<F> {
    f: F,
    properties: MetricProperties,
    name: &'static str,
}

impl<F> FnDistance<F> {
    /// Wrap a closure as a distance measure with the given properties.
    pub fn new(name: &'static str, properties: MetricProperties, f: F) -> Self {
        Self {
            f,
            properties,
            name,
        }
    }
}

impl<O, F> DistanceMeasure<O> for FnDistance<F>
where
    F: Fn(&O, &O) -> f64 + Send + Sync,
{
    fn distance(&self, a: &O, b: &O) -> f64 {
        (self.f)(a, b)
    }
    fn properties(&self) -> MetricProperties {
        self.properties
    }
    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_distance_evaluates_closure() {
        let d = FnDistance::new("abs-diff", MetricProperties::Metric, |a: &f64, b: &f64| {
            (a - b).abs()
        });
        assert_eq!(d.distance(&3.0, &1.0), 2.0);
        assert_eq!(d.name(), "abs-diff");
        assert!(d.properties().is_metric());
    }

    #[test]
    fn references_and_smart_pointers_forward() {
        let d = FnDistance::new("abs-diff", MetricProperties::Metric, |a: &f64, b: &f64| {
            (a - b).abs()
        });
        let by_ref: &dyn DistanceMeasure<f64> = &d;
        assert_eq!(by_ref.distance(&5.0, &2.0), 3.0);
        let arced: Arc<dyn DistanceMeasure<f64>> = Arc::new(FnDistance::new(
            "abs",
            MetricProperties::Metric,
            |a: &f64, b: &f64| (a - b).abs(),
        ));
        assert_eq!(arced.distance(&1.0, &4.0), 3.0);
        let boxed: Box<dyn DistanceMeasure<f64>> = Box::new(FnDistance::new(
            "abs",
            MetricProperties::Metric,
            |a: &f64, b: &f64| (a - b).abs(),
        ));
        assert_eq!(boxed.distance(&1.0, &-1.0), 2.0);
    }

    #[test]
    fn metric_properties_flags() {
        assert!(MetricProperties::Metric.is_symmetric());
        assert!(MetricProperties::Metric.is_metric());
        assert!(MetricProperties::SymmetricNonMetric.is_symmetric());
        assert!(!MetricProperties::SymmetricNonMetric.is_metric());
        assert!(!MetricProperties::Asymmetric.is_symmetric());
        assert!(!MetricProperties::Asymmetric.is_metric());
    }
}
