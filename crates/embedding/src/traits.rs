//! The [`Embedding`] trait.

use qse_distance::{DistanceMeasure, FilterElem, FlatStore, FlatVectors};
use rayon::prelude::*;

/// A function `F : X → R^d` mapping objects into a real vector space.
///
/// Embedding a previously unseen object requires measuring a few exact
/// distances `DX` between that object and stored reference / pivot objects;
/// [`Embedding::embedding_cost`] reports how many, because that cost is part
/// of the paper's per-query budget (*"retrieval time is dominated by the few
/// exact distance computations we need to perform at the embedding step and
/// the refine step"*, Section 8).
pub trait Embedding<O>: Send + Sync {
    /// Output dimensionality `d`.
    fn dim(&self) -> usize;

    /// Embed `object`, evaluating exact distances through `distance`.
    fn embed(&self, object: &O, distance: &dyn DistanceMeasure<O>) -> Vec<f64>;

    /// Number of exact distance computations needed to embed one new object.
    fn embedding_cost(&self) -> usize;

    /// Embed a whole collection, fanned out across rayon worker threads.
    ///
    /// Results are in input order and identical to mapping [`Self::embed`]
    /// sequentially; exact-distance accounting stays correct because
    /// [`qse_distance::CountingDistance`] counts atomically.
    fn embed_all(&self, objects: &[O], distance: &dyn DistanceMeasure<O>) -> Vec<Vec<f64>>
    where
        O: Sync,
    {
        objects
            .par_iter()
            .map(|o| self.embed(o, distance))
            .collect()
    }

    /// Embed a whole query batch into one flat row-major [`FlatVectors`]
    /// buffer (row `q` is `F(queries[q])`), ready for the Q×N tiled filter
    /// scan `qse_distance::WeightedL1::eval_filter_batch`.
    ///
    /// Embedding fans out across rayon worker threads via
    /// [`Self::embed_all`]; each row is bit-identical to [`Self::embed`] on
    /// that query, and the buffer carries [`Self::dim`] explicitly so empty
    /// batches still produce a store of the right width.
    fn embed_queries(&self, queries: &[O], distance: &dyn DistanceMeasure<O>) -> FlatVectors
    where
        O: Sync,
    {
        FlatVectors::from_rows_with_dim(self.dim(), self.embed_all(queries, distance))
    }

    /// Embed a whole *database* into a flat store of the chosen filter
    /// precision `E` — the indexing-time counterpart of
    /// [`Self::embed_queries`] (queries always stay `f64`; only the stored
    /// database side is compressed).
    ///
    /// Embedding fans out across rayon worker threads via
    /// [`Self::embed_all`]; the full-precision rows are then encoded under
    /// parameters fitted over the whole collection (the `u8` backend fits
    /// its per-coordinate quantization grid here). The buffer carries
    /// [`Self::dim`] explicitly so empty collections still produce a store
    /// of the right width.
    fn embed_store<E: FilterElem>(
        &self,
        objects: &[O],
        distance: &dyn DistanceMeasure<O>,
    ) -> FlatStore<E>
    where
        Self: Sized,
        O: Sync,
    {
        FlatStore::from_rows_with_dim(self.dim(), self.embed_all(objects, distance))
    }
}

impl<O, E: Embedding<O> + ?Sized> Embedding<O> for Box<E> {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn embed(&self, object: &O, distance: &dyn DistanceMeasure<O>) -> Vec<f64> {
        (**self).embed(object, distance)
    }
    fn embedding_cost(&self) -> usize {
        (**self).embedding_cost()
    }
}

impl<O, E: Embedding<O> + ?Sized> Embedding<O> for std::sync::Arc<E> {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn embed(&self, object: &O, distance: &dyn DistanceMeasure<O>) -> Vec<f64> {
        (**self).embed(object, distance)
    }
    fn embedding_cost(&self) -> usize {
        (**self).embedding_cost()
    }
}
