//! Snapshot round-trip guarantees: `save` → `load` → retrieve must be
//! **bit-identical** to the index that was saved, for every store backend
//! (`f64` / `f32` / `u8`), every index kind (static [`FilterRefineIndex`],
//! [`DynamicIndex`] with and without routing, [`RoutedIndex`]) and at
//! every thread count in the CI matrix (1 / 2 / 8) — a snapshot written
//! under one parallelism setting must replay exactly under another.
//!
//! Also pinned here: the knobs survive the trip (`p_scale`, `n_probe`,
//! the `DEFAULT_P_SCALE`-seeded backend defaults, `probe_cells` routing
//! decisions), a *churned* dynamic index (insert / remove / refit after
//! build, then save) round-trips and keeps editing after the load, and
//! the file-level `save` / `load` wrappers behave like the byte-level
//! API, and saving over a mapped snapshot leaves the mapping intact.

mod common;

use common::with_thread_count;
use query_sensitive_embeddings::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn clustered(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let c = rng.gen_range(0..9);
            vec![
                (c % 3) as f64 * 14.0 + rng.gen_range(-1.0..1.0),
                (c / 3) as f64 * 14.0 + rng.gen_range(-1.0..1.0),
            ]
        })
        .collect()
}

fn train_model(db: &[Vec<f64>]) -> QseModel<Vec<f64>> {
    let d = LpDistance::l2();
    let pools: Vec<Vec<f64>> = db.iter().take(60).cloned().collect();
    let data = TrainingData::precompute(pools.clone(), pools, &d, 6);
    let mut rng = StdRng::seed_from_u64(1717);
    let triples = TripleSampler::selective(4).sample(&data.train_to_train, 600, &mut rng);
    BoostMapTrainer::new(TrainerConfig::quick()).train(&data, &triples, &mut rng)
}

/// A scratch file path unique to the calling test (tests in one binary
/// run concurrently) that is deleted on drop.
struct ScratchFile(std::path::PathBuf);

impl ScratchFile {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "qse-snapshot-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        Self(path)
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The static index round-trip, generic over the store backend: bytes
/// and file forms both reload to an index whose sequential and batched
/// outcomes (neighbors, distances *and* cost accounting) are identical
/// at 1, 2 and 8 threads.
fn assert_static_roundtrip<E: FilterElem>() {
    let db = clustered(300, 101);
    let d = LpDistance::l2();
    let queries = clustered(24, 103);
    let (k, p) = (4, 30);

    let model = train_model(&db);
    let index = FilterRefineIndex::<_, E>::build_query_sensitive_with_store(model, &db, &d)
        .with_p_scale(1.5);
    let bytes = index.to_snapshot_bytes().unwrap();
    let loaded = FilterRefineIndex::<Vec<f64>, E>::from_snapshot_bytes(&bytes).unwrap();
    assert_eq!(loaded.p_scale(), 1.5, "{}", E::NAME);
    assert_eq!(loaded.len(), index.len(), "{}", E::NAME);

    let file = ScratchFile::new(&format!("static-{}", E::NAME));
    index.save(&file.0).unwrap();
    let from_file = FilterRefineIndex::<Vec<f64>, E>::load(&file.0).unwrap();
    let mapped = FilterRefineIndex::<Vec<f64>, E>::load_mmap(&file.0).unwrap();
    if cfg!(all(
        unix,
        target_pointer_width = "64",
        target_endian = "little"
    )) {
        assert!(
            mapped.store_is_mapped(),
            "{}: load_mmap must serve elements zero-copy on this target",
            E::NAME
        );
        assert_eq!(mapped.store_heap_bytes(), 0, "{}", E::NAME);
    }

    for threads in [1, 2, 8] {
        with_thread_count(threads, || {
            let expected = index.retrieve_batch(&queries, &db, &d, k, p);
            assert_eq!(
                loaded.retrieve_batch(&queries, &db, &d, k, p),
                expected,
                "{} bytes, {threads} threads",
                E::NAME
            );
            assert_eq!(
                from_file.retrieve_batch(&queries, &db, &d, k, p),
                expected,
                "{} file, {threads} threads",
                E::NAME
            );
            assert_eq!(
                mapped.retrieve_batch(&queries, &db, &d, k, p),
                expected,
                "{} mapped, {threads} threads",
                E::NAME
            );
            for (q, query) in queries.iter().enumerate() {
                assert_eq!(
                    loaded.retrieve(query, &db, &d, k, p),
                    expected[q],
                    "{} sequential, {threads} threads, query {q}",
                    E::NAME
                );
                assert_eq!(
                    mapped.retrieve(query, &db, &d, k, p),
                    expected[q],
                    "{} mapped sequential, {threads} threads, query {q}",
                    E::NAME
                );
            }
        });
    }
}

#[test]
fn static_index_roundtrips_bitwise_f64() {
    assert_static_roundtrip::<f64>();
}

#[test]
fn static_index_roundtrips_bitwise_f32() {
    assert_static_roundtrip::<f32>();
}

#[test]
fn static_index_roundtrips_bitwise_u8() {
    assert_static_roundtrip::<u8>();
}

/// The routed index round-trip: routing decisions (`probe_cells`), cell
/// layout, `n_probe` and retrieval outcomes all replay exactly.
fn assert_routed_roundtrip<E: FilterElem>() {
    let db = clustered(400, 111);
    let d = LpDistance::l2();
    let queries = clustered(24, 113);
    let (k, p) = (4, 30);

    let model = train_model(&db);
    let mut index = RoutedIndex::<_, E>::build_query_sensitive_with_store(
        model,
        &db,
        &d,
        RoutedConfig {
            cells: 9,
            n_probe: 3,
            ..RoutedConfig::default()
        },
    );
    index.set_n_probe(4);
    let bytes = index.to_snapshot_bytes().unwrap();
    let loaded = RoutedIndex::<Vec<f64>, E>::from_snapshot_bytes(&bytes).unwrap();
    assert_eq!(loaded.n_probe(), 4, "{}", E::NAME);
    assert_eq!(loaded.p_scale(), index.p_scale(), "{}", E::NAME);
    assert_eq!(loaded.len(), index.len(), "{}", E::NAME);
    assert_eq!(loaded.cell_sizes(), index.cell_sizes(), "{}", E::NAME);

    let file = ScratchFile::new(&format!("routed-{}", E::NAME));
    index.save(&file.0).unwrap();
    let from_file = RoutedIndex::<Vec<f64>, E>::load(&file.0).unwrap();
    let mapped = RoutedIndex::<Vec<f64>, E>::load_mmap(&file.0).unwrap();
    if cfg!(all(
        unix,
        target_pointer_width = "64",
        target_endian = "little"
    )) {
        assert!(
            mapped.store_is_mapped(),
            "{}: every routed cell must borrow from the shared mapping",
            E::NAME
        );
        assert_eq!(mapped.store_heap_bytes(), 0, "{}", E::NAME);
    }

    for threads in [1, 2, 8] {
        with_thread_count(threads, || {
            let expected = index.retrieve_batch(&queries, &db, &d, k, p);
            assert_eq!(
                loaded.retrieve_batch(&queries, &db, &d, k, p),
                expected,
                "{} bytes, {threads} threads",
                E::NAME
            );
            assert_eq!(
                from_file.retrieve_batch(&queries, &db, &d, k, p),
                expected,
                "{} file, {threads} threads",
                E::NAME
            );
            assert_eq!(
                mapped.retrieve_batch(&queries, &db, &d, k, p),
                expected,
                "{} mapped, {threads} threads",
                E::NAME
            );
            for (q, query) in queries.iter().enumerate() {
                assert_eq!(
                    loaded.probe_cells(query, &d),
                    index.probe_cells(query, &d),
                    "{} probe_cells, {threads} threads, query {q}",
                    E::NAME
                );
                assert_eq!(
                    mapped.probe_cells(query, &d),
                    index.probe_cells(query, &d),
                    "{} mapped probe_cells, {threads} threads, query {q}",
                    E::NAME
                );
                assert_eq!(
                    loaded.retrieve(query, &db, &d, k, p),
                    expected[q],
                    "{} sequential, {threads} threads, query {q}",
                    E::NAME
                );
                assert_eq!(
                    mapped.retrieve(query, &db, &d, k, p),
                    expected[q],
                    "{} mapped sequential, {threads} threads, query {q}",
                    E::NAME
                );
            }
        });
    }
}

#[test]
fn routed_index_roundtrips_bitwise_f64() {
    assert_routed_roundtrip::<f64>();
}

#[test]
fn routed_index_roundtrips_bitwise_f32() {
    assert_routed_roundtrip::<f32>();
}

#[test]
fn routed_index_roundtrips_bitwise_u8() {
    assert_routed_roundtrip::<u8>();
}

/// The dynamic index round-trip over a **churned** index: build, enable
/// routing, insert, remove, refit the store, save — the loaded index
/// must retrieve identically at every thread count *and* support further
/// edits that stay in lockstep with the original.
fn assert_dynamic_roundtrip<E: FilterElem>(route: bool) {
    let db = clustered(300, 121);
    let d = LpDistance::l2();
    let queries = clustered(20, 123);
    let (k, p) = (4, 25);

    let model = train_model(&db);
    let mut index = DynamicIndex::<_, E>::with_store(model, db, &d);
    if route {
        index.enable_routing(
            RoutedConfig {
                cells: 9,
                n_probe: 3,
                ..RoutedConfig::default()
            },
            &d,
        );
    }
    // Churn before saving: drift in, shrink, refit the grid.
    for object in clustered(40, 127) {
        index.insert(object, &d);
    }
    for i in [5, 100, 250] {
        index.remove(i);
    }
    index.refit_store(&d);

    let bytes = index.to_snapshot_bytes().unwrap();
    let mut loaded = DynamicIndex::<Vec<f64>, E>::from_snapshot_bytes(&bytes).unwrap();
    assert_eq!(loaded.len(), index.len(), "{}", E::NAME);
    assert_eq!(loaded.p_scale(), index.p_scale(), "{}", E::NAME);
    assert_eq!(loaded.routing(), index.routing(), "{}", E::NAME);
    assert_eq!(
        loaded.vectors().as_slice(),
        index.vectors().as_slice(),
        "{}: stored filter bytes must round-trip exactly",
        E::NAME
    );

    let file = ScratchFile::new(&format!("dynamic-{route}-{}", E::NAME));
    index.save(&file.0).unwrap();
    let from_file = DynamicIndex::<Vec<f64>, E>::load(&file.0).unwrap();
    let mut mapped = DynamicIndex::<Vec<f64>, E>::load_mmap(&file.0).unwrap();
    if cfg!(all(
        unix,
        target_pointer_width = "64",
        target_endian = "little"
    )) {
        assert!(
            mapped.store_is_mapped(),
            "{}: a freshly mapped dynamic index serves off the file",
            E::NAME
        );
    }

    for threads in [1, 2, 8] {
        with_thread_count(threads, || {
            let expected = index.retrieve_batch(&queries, &d, k, p);
            assert_eq!(
                loaded.retrieve_batch(&queries, &d, k, p),
                expected,
                "{} bytes, routed={route}, {threads} threads",
                E::NAME
            );
            assert_eq!(
                from_file.retrieve_batch(&queries, &d, k, p),
                expected,
                "{} file, routed={route}, {threads} threads",
                E::NAME
            );
            assert_eq!(
                mapped.retrieve_batch(&queries, &d, k, p),
                expected,
                "{} mapped, routed={route}, {threads} threads",
                E::NAME
            );
        });
    }

    // The loaded and mapped indexes stay editable, in lockstep with the
    // original — the mapped one detaching from the file on first write
    // (copy-on-first-write) without the file's bytes ever changing.
    let mut index = index;
    for object in clustered(10, 131) {
        let id = index.insert(object.clone(), &d);
        assert_eq!(loaded.insert(object.clone(), &d), id, "{}", E::NAME);
        assert_eq!(mapped.insert(object, &d), id, "{} mapped", E::NAME);
    }
    assert!(
        !mapped.store_is_mapped(),
        "{}: the first mutation must detach the store from the mapping",
        E::NAME
    );
    index.remove(7);
    loaded.remove(7);
    mapped.remove(7);
    assert_eq!(
        loaded.retrieve_batch(&queries, &d, k, p),
        index.retrieve_batch(&queries, &d, k, p),
        "{}: post-load edits must stay in lockstep",
        E::NAME
    );
    assert_eq!(
        mapped.retrieve_batch(&queries, &d, k, p),
        index.retrieve_batch(&queries, &d, k, p),
        "{}: post-load edits on the mapped index must stay in lockstep",
        E::NAME
    );
    let same_file = DynamicIndex::<Vec<f64>, E>::load(&file.0).unwrap();
    assert_eq!(
        same_file.vectors().as_slice(),
        from_file.vectors().as_slice(),
        "{}: mutating a mapped index must never write through to the file",
        E::NAME
    );
}

#[test]
fn dynamic_index_roundtrips_bitwise_f64() {
    assert_dynamic_roundtrip::<f64>(false);
}

#[test]
fn dynamic_index_roundtrips_bitwise_f32() {
    assert_dynamic_roundtrip::<f32>(false);
}

#[test]
fn dynamic_index_roundtrips_bitwise_u8() {
    assert_dynamic_roundtrip::<u8>(false);
}

#[test]
fn routed_dynamic_index_roundtrips_bitwise_f64() {
    assert_dynamic_roundtrip::<f64>(true);
}

#[test]
fn routed_dynamic_index_roundtrips_bitwise_f32() {
    assert_dynamic_roundtrip::<f32>(true);
}

#[test]
fn routed_dynamic_index_roundtrips_bitwise_u8() {
    assert_dynamic_roundtrip::<u8>(true);
}

/// Knob restoration pinned explicitly: a freshly built `u8` index (which
/// seeds `p_scale` from `u8::DEFAULT_P_SCALE = 2.0`) and its loaded
/// snapshot report the same knobs and produce identical `probe_cells`
/// and top-k — nothing about the defaults is re-derived at load time.
#[test]
fn load_restores_default_seeded_knobs_exactly() {
    let db = clustered(400, 141);
    let d = LpDistance::l2();
    let queries = clustered(16, 143);
    let model = train_model(&db);

    let fresh = RoutedIndex::<_, u8>::build_query_sensitive_with_store(
        model,
        &db,
        &d,
        RoutedConfig {
            cells: 8,
            n_probe: 3,
            ..RoutedConfig::default()
        },
    );
    assert_eq!(fresh.p_scale(), <u8 as FilterElem>::DEFAULT_P_SCALE);
    let loaded =
        RoutedIndex::<Vec<f64>, u8>::from_snapshot_bytes(&fresh.to_snapshot_bytes().unwrap())
            .unwrap();
    assert_eq!(loaded.p_scale(), <u8 as FilterElem>::DEFAULT_P_SCALE);
    assert_eq!(loaded.n_probe(), fresh.n_probe());
    for q in &queries {
        assert_eq!(loaded.probe_cells(q, &d), fresh.probe_cells(q, &d));
        assert_eq!(
            loaded.retrieve(q, &db, &d, 5, 20),
            fresh.retrieve(q, &db, &d, 5, 20)
        );
    }

    // A non-default override survives the trip too (no re-seeding).
    let fresh = fresh.with_p_scale(3.25);
    let loaded =
        RoutedIndex::<Vec<f64>, u8>::from_snapshot_bytes(&fresh.to_snapshot_bytes().unwrap())
            .unwrap();
    assert_eq!(loaded.p_scale(), 3.25);
}

/// Churn a routed dynamic index object by object until its cells pass
/// through single-element and empty states, snapshotting at every step:
/// each snapshot must load, retrieve identically to the original (the
/// probe set extends past emptied cells instead of starving the refine
/// step — the `probe_prefix` floor), stay byte-stable under re-save, and
/// keep editing in lockstep after the load.
#[test]
fn churned_single_element_cells_roundtrip() {
    let db = clustered(40, 161);
    let d = LpDistance::l2();
    let queries = clustered(6, 163);
    let model = train_model(&db);
    let mut index = DynamicIndex::<_, u8>::with_store(model, db, &d);
    index.enable_routing(
        RoutedConfig {
            cells: 8,
            n_probe: 2,
            ..RoutedConfig::default()
        },
        &d,
    );
    let mut step = 0usize;
    while index.len() > 2 {
        // Vary the removal position: front, back, middle.
        let at = match step % 3 {
            0 => 0,
            1 => index.len() - 1,
            _ => index.len() / 2,
        };
        index.remove(at);
        step += 1;
        let n = index.len();
        let (k, p) = (1, n.min(3));
        let bytes = index.to_snapshot_bytes().unwrap();
        let mut loaded = DynamicIndex::<Vec<f64>, u8>::from_snapshot_bytes(&bytes)
            .unwrap_or_else(|e| panic!("snapshot load failed at len {n}: {e}"));
        for q in &queries {
            let got = loaded.retrieve(q, &d, k, p);
            assert_eq!(got.len(), k, "short result at len {n}");
            assert_eq!(
                got,
                index.retrieve(q, &d, k, p),
                "retrieval diverged at len {n}"
            );
        }
        assert_eq!(
            bytes,
            loaded.to_snapshot_bytes().unwrap(),
            "snapshot bytes unstable at len {n}"
        );
        // Post-load lockstep edits: the loaded index must continue to be
        // editable exactly like the original, including re-filling a cell
        // that was emptied by the churn.
        let probe = vec![7.0 + step as f64 * 0.1, 7.0];
        index.insert(probe.clone(), &d);
        loaded.insert(probe, &d);
        for q in &queries {
            assert_eq!(
                loaded.retrieve(q, &d, 1, 3),
                index.retrieve(q, &d, 1, 3),
                "post-load insert diverged at step {step}"
            );
        }
        let gid = index.len() - 1;
        assert_eq!(index.remove(gid), loaded.remove(gid));
    }
    // Refit with config.cells (8) above the surviving population (2): the
    // k-means must cope, and the refit state must still round-trip.
    index.refit_store(&d);
    let bytes = index.to_snapshot_bytes().unwrap();
    let loaded = DynamicIndex::<Vec<f64>, u8>::from_snapshot_bytes(&bytes).unwrap();
    for q in &queries {
        assert_eq!(loaded.retrieve(q, &d, 1, 2), index.retrieve(q, &d, 1, 2));
    }
}

/// A snapshot written under one thread count must replay identically
/// when loaded under another — the bytes carry no parallelism residue.
#[test]
fn snapshots_are_thread_count_invariant() {
    let db = clustered(300, 151);
    let d = LpDistance::l2();
    let queries = clustered(12, 153);
    let model = train_model(&db);

    let bytes_by_threads: Vec<Vec<u8>> = [1, 2, 8]
        .into_iter()
        .map(|threads| {
            with_thread_count(threads, || {
                RoutedIndex::<_, u8>::build_query_sensitive_with_store(
                    model.clone(),
                    &db,
                    &d,
                    RoutedConfig {
                        cells: 6,
                        n_probe: 2,
                        ..RoutedConfig::default()
                    },
                )
                .to_snapshot_bytes()
                .unwrap()
            })
        })
        .collect();
    assert_eq!(bytes_by_threads[0], bytes_by_threads[1]);
    assert_eq!(bytes_by_threads[0], bytes_by_threads[2]);

    let index = RoutedIndex::<Vec<f64>, u8>::from_snapshot_bytes(&bytes_by_threads[0]).unwrap();
    let expected = with_thread_count(1, || index.retrieve_batch(&queries, &db, &d, 4, 20));
    for threads in [2, 8] {
        with_thread_count(threads, || {
            assert_eq!(index.retrieve_batch(&queries, &db, &d, 4, 20), expected);
        });
    }
}

/// Saving over a snapshot a server has mapped must not touch the mapped
/// bytes: `save` replaces the file by rename, so the mapped index keeps
/// answering bit-identically from the old file while `load` sees the new
/// one. (An in-place write truncates the file under the live mapping —
/// `SIGBUS` on the next page touch, or the new index's bytes read as the
/// old one's.)
#[test]
fn saving_over_a_mapped_snapshot_leaves_the_mapping_intact() {
    let d = LpDistance::l2();
    let queries = clustered(12, 173);
    let (k, p) = (3, 20);
    let config = RoutedConfig {
        cells: 6,
        n_probe: 3,
        ..RoutedConfig::default()
    };
    let db_a = clustered(400, 171);
    let a = RoutedIndex::<_, u8>::build_query_sensitive_with_store(
        train_model(&db_a),
        &db_a,
        &d,
        config,
    );
    let db_b = clustered(90, 175);
    let b = RoutedIndex::<_, u8>::build_query_sensitive_with_store(
        train_model(&db_b),
        &db_b,
        &d,
        config,
    );
    let bytes_a = a.to_snapshot_bytes().unwrap();
    assert!(b.to_snapshot_bytes().unwrap().len() < bytes_a.len());

    let file = ScratchFile::new("overwrite-mapped");
    a.save(&file.0).unwrap();
    let mapped_a = RoutedIndex::<Vec<f64>, u8>::load_mmap(&file.0).unwrap();
    b.save(&file.0).unwrap();

    let owned_a = RoutedIndex::<Vec<f64>, u8>::from_snapshot_bytes(&bytes_a).unwrap();
    assert_eq!(
        mapped_a.retrieve_batch(&queries, &db_a, &d, k, p),
        owned_a.retrieve_batch(&queries, &db_a, &d, k, p)
    );
    for query in &queries {
        assert_eq!(
            mapped_a.retrieve(query, &db_a, &d, k, p),
            owned_a.retrieve(query, &db_a, &d, k, p)
        );
    }
    let loaded_b = RoutedIndex::<Vec<f64>, u8>::load(&file.0).unwrap();
    assert_eq!(loaded_b.len(), b.len());
    assert_eq!(
        loaded_b.retrieve_batch(&queries, &db_b, &d, k, p),
        b.retrieve_batch(&queries, &db_b, &d, k, p)
    );
    // No temporary file is left behind next to the snapshot.
    let name = file.0.file_name().unwrap().to_string_lossy().into_owned();
    let dir = file.0.parent().unwrap();
    let leftovers = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| {
            let entry = e.file_name().to_string_lossy().into_owned();
            entry.starts_with(&format!(".{name}."))
        })
        .count();
    assert_eq!(leftovers, 0);
}
