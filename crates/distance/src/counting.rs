//! Exact-distance accounting.
//!
//! The paper's entire evaluation is phrased in terms of *"the number of
//! exact distance computations per query"* (embedding step + refine step) —
//! not wall-clock time, which is then derived by dividing by a constant
//! per-distance cost (Section 9). [`CountingDistance`] decorates any
//! [`DistanceMeasure`] with a thread-safe call counter so the retrieval
//! harness reports measured counts rather than analytic estimates.

use crate::traits::{DistanceMeasure, MetricProperties};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A decorator that counts how many times the wrapped distance measure has
/// been evaluated. A [`DistanceMeasure::distance_within`] call counts as
/// one evaluation even when the measure abandons it early.
///
/// Cloning a `CountingDistance` shares the same counter (both the measure and
/// the counter are behind `Arc`s), which lets the evaluation harness hand
/// clones to worker threads and still read one global tally.
pub struct CountingDistance<O: ?Sized, D> {
    inner: Arc<D>,
    count: Arc<AtomicU64>,
    _marker: std::marker::PhantomData<fn(&O)>,
}

impl<O: ?Sized, D> Clone for CountingDistance<O, D> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
            count: Arc::clone(&self.count),
            _marker: std::marker::PhantomData,
        }
    }
}

impl<O: ?Sized, D: DistanceMeasure<O>> CountingDistance<O, D> {
    /// Wrap a distance measure with a fresh counter starting at zero.
    pub fn new(inner: D) -> Self {
        Self {
            inner: Arc::new(inner),
            count: Arc::new(AtomicU64::new(0)),
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of distance evaluations performed through this wrapper (and all
    /// of its clones) so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Reset the counter to zero and return the previous value.
    pub fn reset(&self) -> u64 {
        self.count.swap(0, Ordering::Relaxed)
    }

    /// Access the wrapped measure without counting.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// A handle to the raw counter, for harnesses that want to snapshot it.
    pub fn counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.count)
    }
}

impl<O: ?Sized, D: DistanceMeasure<O>> DistanceMeasure<O> for CountingDistance<O, D> {
    fn distance(&self, a: &O, b: &O) -> f64 {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.inner.distance(a, b)
    }
    fn distance_within(&self, a: &O, b: &O, cutoff: f64) -> f64 {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.inner.distance_within(a, b, cutoff)
    }
    fn properties(&self) -> MetricProperties {
        self.inner.properties()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::FnDistance;
    use crate::vector::LpDistance;

    #[test]
    fn counts_every_evaluation() {
        let d = CountingDistance::new(LpDistance::l1());
        assert_eq!(d.count(), 0);
        let a = vec![0.0, 0.0];
        let b = vec![1.0, 2.0];
        for _ in 0..5 {
            let _ = DistanceMeasure::<Vec<f64>>::distance(&d, &a, &b);
        }
        assert_eq!(d.count(), 5);
        assert_eq!(d.reset(), 5);
        assert_eq!(d.count(), 0);
    }

    #[test]
    fn clones_share_the_counter() {
        let d = CountingDistance::new(FnDistance::new(
            "abs",
            MetricProperties::Metric,
            |a: &f64, b: &f64| (a - b).abs(),
        ));
        let d2 = d.clone();
        let _ = d.distance(&1.0, &2.0);
        let _ = d2.distance(&3.0, &4.0);
        assert_eq!(d.count(), 2);
        assert_eq!(d2.count(), 2);
    }

    #[test]
    fn counting_is_thread_safe() {
        let d = CountingDistance::new(FnDistance::new(
            "abs",
            MetricProperties::Metric,
            |a: &f64, b: &f64| (a - b).abs(),
        ));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let dc = d.clone();
                scope.spawn(move || {
                    for i in 0..1000 {
                        let _ = dc.distance(&(i as f64), &0.0);
                    }
                });
            }
        });
        assert_eq!(d.count(), 4000);
    }

    #[test]
    fn forwards_properties_and_name() {
        let d = CountingDistance::new(LpDistance::l2());
        assert_eq!(DistanceMeasure::<Vec<f64>>::name(&d), "lp");
        assert!(DistanceMeasure::<Vec<f64>>::properties(&d).is_metric());
    }
}
