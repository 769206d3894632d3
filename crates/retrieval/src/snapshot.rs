//! Versioned index snapshots: save/load the complete retrieval state.
//!
//! The paper's pipeline is train-once / serve-many: a [`QseModel`] is
//! trained offline, the database is embedded once, and every retrieval
//! reuses that state. This module makes the state survive process exit —
//! [`FilterRefineIndex`], [`DynamicIndex`] and [`RoutedIndex`] grow
//! `to_snapshot_bytes` / `from_snapshot_bytes` (and file-level `save` /
//! `load`), so a served index starts by reading bytes instead of paying
//! the full re-embed + k-means build.
//!
//! ## Format (version 2)
//!
//! One contiguous byte stream, little-endian throughout:
//!
//! ```text
//! header (24 bytes)
//!   0..8    magic  "QSESNAP\0"
//!   8..12   format version (u32)
//!   12      index-kind tag   (1 = static, 2 = dynamic, 3 = routed)
//!   13      element-type tag (1 = f64,    2 = f32,     3 = u8)
//!   14..16  reserved (zero)
//!   16..20  section count (u32)
//!   20..24  reserved (zero)
//! section table (24 bytes per section)
//!   +0..4   section id (u32)
//!   +4..8   reserved (zero)
//!   +8..16  payload length in bytes (u64, unpadded)
//!   +16..24 lane-parallel FNV-1a 64 checksum of the padded payload
//! payloads (in table order, each zero-padded to a multiple of 8 bytes)
//! ```
//!
//! The header and every table entry are 8-byte multiples, so **every
//! payload starts 8-byte-aligned** — and the store payload puts its raw
//! element bytes after two `u64` fields, keeping them aligned too. That
//! alignment is what the zero-copy loaders exploit: `load_mmap` /
//! `from_mapped` on all three index types point their [`FlatStore`]s
//! straight at the element bytes of an `mmap`ed snapshot (routed cells
//! slice disjoint ranges of **one** shared mapping), so startup never
//! copies element bytes and resident memory stays with the OS page
//! cache. Mutating a mapped [`DynamicIndex`] copies on first write —
//! the file is never written through. The checksum covers the padding
//! bytes as well, so any single-byte flip anywhere in a payload is
//! caught — and it is verified *before* any section is trusted, on the
//! mapped path too.
//!
//! Version 2 replaced version 1's serial FNV-1a with [`section_checksum`],
//! an 8-lane word-striped FNV-1a variant: the serial byte loop is a
//! dependency chain that tops out near 0.7 GB/s, which would cost more
//! than the entire copy it replaces on multi-hundred-MB mapped stores;
//! the striped variant verifies at ~10× that rate with the same
//! single-bit sensitivity.
//!
//! Sections by index kind (the model is the `qse_core::json` text form,
//! which round-trips every weight — including inf/nan — bit for bit):
//!
//! | id | name             | static | dynamic | routed |
//! |----|------------------|--------|---------|--------|
//! | 1  | `model`          | ✓      | ✓       | ✓      |
//! | 2  | `params`         | ✓      | ✓       | ✓      |
//! | 3  | `store`          | ✓      | ✓       |        |
//! | 4  | `knobs`          | ✓      | ✓       | ✓ (+`n_probe`, `len`) |
//! | 5  | `objects`        |        | ✓       |        |
//! | 6  | `centroids`      |        | if routed | ✓    |
//! | 7  | `cells`          |        | if routed | ✓    |
//! | 8  | `ids`            |        | if routed | ✓    |
//! | 9  | `locs`           |        | if routed |      |
//! | 10 | `routing_config` |        | if routed |      |
//!
//! ## Versioning and failure modes
//!
//! [`SNAPSHOT_VERSION`] bumps on any incompatible layout change; a loader
//! only reads its own version and fails with
//! [`SnapshotError::UnsupportedVersion`] otherwise — no silent migration.
//! Every failure is a typed [`SnapshotError`]; `load` **never panics** on
//! hostile bytes: magic/version/kind/backend are checked before anything
//! else, section checksums before any decoding, and every in-section read
//! is bounds- and consistency-checked (`Truncated`, `ChecksumMismatch`,
//! `CorruptSection`, ...). Global-L1 indexes hold an opaque
//! `Box<dyn Embedding>` and cannot be serialized —
//! [`SnapshotError::GlobalFilterUnsupported`]; snapshots always carry a
//! trained [`QseModel`].

use std::fmt;
use std::io::Write;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::dynamic::{DynamicIndex, RoutingState};
use crate::filter_refine::{FilterKind, FilterRefineIndex};
use crate::routed::{IdList, RoutedConfig, RoutedIndex};
use qse_core::json::{JsonCodec, JsonValue};
use qse_core::QseModel;
use qse_distance::{FilterElem, FlatStore, FlatVectors, MapRegion, MappedWords};
use qse_embedding::KMeans;

/// The 8-byte magic every snapshot starts with.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"QSESNAP\0";

/// The format version this build writes and reads (see the module docs
/// for the compatibility policy).
pub const SNAPSHOT_VERSION: u32 = 2;

/// Byte offset of the format version (`u32` LE) in the header.
pub const VERSION_OFFSET: usize = 8;

/// Byte offset of the index-kind tag in the header.
pub const KIND_OFFSET: usize = 12;

/// Byte offset of the element-type tag in the header.
pub const ELEM_TAG_OFFSET: usize = 13;

const HEADER_LEN: usize = 24;
const ENTRY_LEN: usize = 24;

const KIND_STATIC: u8 = 1;
const KIND_DYNAMIC: u8 = 2;
const KIND_ROUTED: u8 = 3;

const SEC_MODEL: u32 = 1;
const SEC_PARAMS: u32 = 2;
const SEC_STORE: u32 = 3;
const SEC_KNOBS: u32 = 4;
const SEC_OBJECTS: u32 = 5;
const SEC_CENTROIDS: u32 = 6;
const SEC_CELLS: u32 = 7;
const SEC_IDS: u32 = 8;
const SEC_LOCS: u32 = 9;
const SEC_ROUTING: u32 = 10;

fn section_name(id: u32) -> Option<&'static str> {
    Some(match id {
        SEC_MODEL => "model",
        SEC_PARAMS => "params",
        SEC_STORE => "store",
        SEC_KNOBS => "knobs",
        SEC_OBJECTS => "objects",
        SEC_CENTROIDS => "centroids",
        SEC_CELLS => "cells",
        SEC_IDS => "ids",
        SEC_LOCS => "locs",
        SEC_ROUTING => "routing_config",
        _ => return None,
    })
}

fn kind_name(tag: u8) -> &'static str {
    match tag {
        KIND_STATIC => "static (FilterRefineIndex)",
        KIND_DYNAMIC => "dynamic (DynamicIndex)",
        KIND_ROUTED => "routed (RoutedIndex)",
        _ => "unknown",
    }
}

fn elem_name(tag: u8) -> &'static str {
    match tag {
        1 => "f64",
        2 => "f32",
        3 => "u8",
        _ => "unknown",
    }
}

/// Why a snapshot could not be written or read. `load` paths return these
/// instead of panicking, whatever the input bytes (see the module docs).
#[derive(Debug)]
pub enum SnapshotError {
    /// Reading or writing the snapshot file failed.
    Io(std::io::Error),
    /// The bytes do not start with [`SNAPSHOT_MAGIC`] — not a snapshot.
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    UnsupportedVersion {
        /// Version tag found in the header.
        found: u32,
        /// The only version this build reads ([`SNAPSHOT_VERSION`]).
        supported: u32,
    },
    /// The snapshot holds a different index type than the loader.
    KindMismatch {
        /// Index-kind tag found in the header.
        found: u8,
        /// The loading index type's tag.
        expected: u8,
    },
    /// The snapshot's store backend differs from the loader's element
    /// type `E` (e.g. `u8` bytes loaded as `FlatStore<f64>`).
    BackendMismatch {
        /// Element-type tag found in the header.
        found: u8,
        /// The loading backend's [`FilterElem::SNAPSHOT_TAG`].
        expected: u8,
    },
    /// The byte stream ends before the structure it declares.
    Truncated {
        /// Bytes the declared structure requires.
        needed: u64,
        /// Bytes actually available.
        available: u64,
    },
    /// The header or section table is internally inconsistent.
    CorruptHeader {
        /// What was wrong.
        reason: String,
    },
    /// A section's payload does not match its recorded checksum.
    ChecksumMismatch {
        /// Name of the failing section.
        section: &'static str,
    },
    /// A section this index kind requires is absent.
    MissingSection {
        /// Name of the absent section.
        section: &'static str,
    },
    /// A section's checksum matched but its contents do not decode into a
    /// consistent index (internal length/consistency checks failed).
    CorruptSection {
        /// Name of the failing section.
        section: &'static str,
        /// What was wrong.
        reason: String,
    },
    /// The index filters through an opaque global-L1 embedding object,
    /// which has no serialized form; only query-sensitive (model-backed)
    /// indexes can be snapshotted.
    GlobalFilterUnsupported,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "snapshot I/O error: {e}"),
            Self::BadMagic => write!(f, "not a QSE snapshot (bad magic)"),
            Self::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build reads version {supported})"
            ),
            Self::KindMismatch { found, expected } => write!(
                f,
                "snapshot holds a {} index, expected {}",
                kind_name(*found),
                kind_name(*expected)
            ),
            Self::BackendMismatch { found, expected } => write!(
                f,
                "snapshot store backend is {}, expected {}",
                elem_name(*found),
                elem_name(*expected)
            ),
            Self::Truncated { needed, available } => write!(
                f,
                "snapshot truncated: need {needed} bytes, have {available}"
            ),
            Self::CorruptHeader { reason } => write!(f, "corrupt snapshot header: {reason}"),
            Self::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section `{section}`")
            }
            Self::MissingSection { section } => write!(f, "missing section `{section}`"),
            Self::CorruptSection { section, reason } => {
                write!(f, "corrupt section `{section}`: {reason}")
            }
            Self::GlobalFilterUnsupported => write!(
                f,
                "global-L1 indexes hold an opaque embedding object and cannot be \
                 snapshotted; index under a trained QseModel instead"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

fn corrupt(section: &'static str, reason: impl Into<String>) -> SnapshotError {
    SnapshotError::CorruptSection {
        section,
        reason: reason.into(),
    }
}

/// The version-2 section checksum: 8-lane word-striped FNV-1a 64 over
/// the **padded** payload bytes.
///
/// Each 64-byte group feeds one little-endian `u64` word to each of 8
/// independent FNV-1a lanes, the lanes fold into one state
/// (`h = (h ^ lane) * PRIME`), any sub-group tail hashes byte-wise, and
/// the total length folds in last so payloads that differ only in
/// trailing zeros still differ. The 8 independent multiply chains are
/// what buys throughput: serial byte-at-a-time FNV-1a is one long
/// dependency chain (~0.7 GB/s measured on this host); this variant
/// verifies at ~6.9 GB/s, which keeps eager verify-before-trust cheap
/// even for multi-hundred-MB mapped stores. Any single-bit flip still
/// changes exactly one lane (or the tail/length fold) and therefore the
/// final state.
fn section_checksum(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    const GROUP: usize = 64;
    let mut lanes = [OFFSET; 8];
    let mut groups = bytes.chunks_exact(GROUP);
    for group in groups.by_ref() {
        for (lane, word) in lanes.iter_mut().zip(group.chunks_exact(8)) {
            let w = u64::from_le_bytes(fixed(word));
            *lane = (*lane ^ w).wrapping_mul(PRIME);
        }
    }
    let mut h = OFFSET;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(PRIME);
    }
    for &b in groups.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    (h ^ bytes.len() as u64).wrapping_mul(PRIME)
}

fn padding_of(len: usize) -> usize {
    len.next_multiple_of(8) - len
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

struct Writer {
    kind: u8,
    elem_tag: u8,
    sections: Vec<(u32, Vec<u8>)>,
}

impl Writer {
    fn new(kind: u8, elem_tag: u8) -> Self {
        Self {
            kind,
            elem_tag,
            sections: Vec::new(),
        }
    }

    fn section(&mut self, id: u32, payload: Vec<u8>) {
        debug_assert!(section_name(id).is_some());
        self.sections.push((id, payload));
    }

    fn finish(self) -> Vec<u8> {
        let payload_total: usize = self
            .sections
            .iter()
            .map(|(_, p)| p.len().next_multiple_of(8))
            .sum();
        let mut out =
            Vec::with_capacity(HEADER_LEN + ENTRY_LEN * self.sections.len() + payload_total);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.push(self.kind);
        out.push(self.elem_tag);
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        // Table first with placeholder checksums, payloads after, then
        // patch each checksum over the contiguous padded bytes in place
        // — one pass over final bytes, exactly what the reader hashes.
        for (id, payload) in &self.sections {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&0u32.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&0u64.to_le_bytes());
        }
        let mut padded_ranges = Vec::with_capacity(self.sections.len());
        for (_, payload) in &self.sections {
            let start = out.len();
            out.extend_from_slice(payload);
            out.resize(out.len() + padding_of(payload.len()), 0);
            padded_ranges.push(start..out.len());
        }
        for (i, range) in padded_ranges.into_iter().enumerate() {
            let checksum = section_checksum(&out[range]);
            let slot = HEADER_LEN + i * ENTRY_LEN + 16;
            out[slot..slot + 8].copy_from_slice(&checksum.to_le_bytes());
        }
        out
    }
}

// ---------------------------------------------------------------------
// Reader: header, table, cursor
// ---------------------------------------------------------------------

fn fixed<const N: usize>(bytes: &[u8]) -> [u8; N] {
    bytes.try_into().expect("caller slices exactly N bytes")
}

/// `(kind, elem_tag, section_count)` of a structurally valid header.
fn parse_header(bytes: &[u8]) -> Result<(u8, u8, usize), SnapshotError> {
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotError::Truncated {
            needed: HEADER_LEN as u64,
            available: bytes.len() as u64,
        });
    }
    if bytes[0..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(fixed(&bytes[VERSION_OFFSET..VERSION_OFFSET + 4]));
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let kind = bytes[KIND_OFFSET];
    let elem_tag = bytes[ELEM_TAG_OFFSET];
    if bytes[14..16] != [0, 0] || bytes[20..24] != [0, 0, 0, 0] {
        return Err(SnapshotError::CorruptHeader {
            reason: "reserved header bytes are not zero".into(),
        });
    }
    let count = u32::from_le_bytes(fixed(&bytes[16..20])) as usize;
    Ok((kind, elem_tag, count))
}

struct SectionSlice {
    id: u32,
    range: Range<usize>,
}

/// Walk the section table, verifying bounds and every checksum; returns
/// the **unpadded** payload range per section.
fn parse_table(bytes: &[u8], count: usize) -> Result<Vec<SectionSlice>, SnapshotError> {
    let total = bytes.len() as u64;
    let table_end = HEADER_LEN as u64 + (count as u64) * (ENTRY_LEN as u64);
    if table_end > total {
        return Err(SnapshotError::Truncated {
            needed: table_end,
            available: total,
        });
    }
    let mut sections = Vec::with_capacity(count);
    let mut offset = table_end;
    for i in 0..count {
        let e = HEADER_LEN + i * ENTRY_LEN;
        let id = u32::from_le_bytes(fixed(&bytes[e..e + 4]));
        let name = section_name(id).ok_or_else(|| SnapshotError::CorruptHeader {
            reason: format!("unknown section id {id}"),
        })?;
        if bytes[e + 4..e + 8] != [0, 0, 0, 0] {
            return Err(SnapshotError::CorruptHeader {
                reason: format!("reserved table bytes of section `{name}` are not zero"),
            });
        }
        let len = u64::from_le_bytes(fixed(&bytes[e + 8..e + 16]));
        let checksum = u64::from_le_bytes(fixed(&bytes[e + 16..e + 24]));
        let padded =
            len.checked_add(7)
                .map(|v| v & !7u64)
                .ok_or_else(|| SnapshotError::CorruptHeader {
                    reason: format!("length of section `{name}` overflows"),
                })?;
        let end = offset
            .checked_add(padded)
            .ok_or_else(|| SnapshotError::CorruptHeader {
                reason: format!("offset of section `{name}` overflows"),
            })?;
        if end > total {
            return Err(SnapshotError::Truncated {
                needed: end,
                available: total,
            });
        }
        // In-memory slice: offsets fit usize because end <= total.
        let start = offset as usize;
        let padded_payload = &bytes[start..end as usize];
        if section_checksum(padded_payload) != checksum {
            return Err(SnapshotError::ChecksumMismatch { section: name });
        }
        sections.push(SectionSlice {
            id,
            range: start..start + len as usize,
        });
        offset = end;
    }
    if offset != total {
        return Err(SnapshotError::CorruptHeader {
            reason: format!("{} trailing bytes after the last section", total - offset),
        });
    }
    Ok(sections)
}

/// The section layout of a snapshot: `(name, unpadded payload range)` in
/// table order, after validating the magic, version, table bounds and
/// every section checksum (kind/backend tags are *not* checked — the
/// layout is kind-agnostic). This is the introspection hook the
/// corruption-injection tests drive; servers can use it to report what a
/// snapshot file contains without deserializing it.
pub fn snapshot_sections(bytes: &[u8]) -> Result<Vec<(&'static str, Range<usize>)>, SnapshotError> {
    let (_, _, count) = parse_header(bytes)?;
    let sections = parse_table(bytes, count)?;
    Ok(sections
        .into_iter()
        .map(|s| {
            (
                section_name(s.id).expect("validated by parse_table"),
                s.range,
            )
        })
        .collect())
}

struct Sections<'a> {
    bytes: &'a [u8],
    slices: Vec<SectionSlice>,
}

impl<'a> Sections<'a> {
    fn get_opt(&self, id: u32) -> Option<&'a [u8]> {
        self.slices
            .iter()
            .find(|s| s.id == id)
            .map(|s| &self.bytes[s.range.clone()])
    }

    fn get(&self, id: u32) -> Result<&'a [u8], SnapshotError> {
        self.get_opt(id).ok_or(SnapshotError::MissingSection {
            section: section_name(id).expect("callers pass known ids"),
        })
    }

    /// The zero-copy element source for section `id`: the shared mapping
    /// paired with the section payload's absolute offset in the stream
    /// (the rebase origin for element byte ranges). `None` when loading
    /// from owned bytes — the store decoders then copy, as before.
    fn source<'m>(&self, id: u32, map: Option<&'m Arc<MapRegion>>) -> Option<MapSource<'m>> {
        let region = map?;
        let section_start = self.slices.iter().find(|s| s.id == id)?.range.start;
        Some(MapSource {
            region,
            section_start,
        })
    }
}

/// Where a store decoder may borrow element bytes zero-copy: the mapped
/// snapshot region plus the absolute offset of the section payload being
/// decoded (in-section cursor positions rebase against it).
#[derive(Clone, Copy)]
struct MapSource<'m> {
    region: &'m Arc<MapRegion>,
    section_start: usize,
}

/// Header + table + checksum validation for a typed loader: kind and
/// backend tags must match before any section is touched.
fn parse_typed<E: FilterElem>(
    bytes: &[u8],
    expected_kind: u8,
) -> Result<Sections<'_>, SnapshotError> {
    let (kind, elem_tag, count) = parse_header(bytes)?;
    if kind != expected_kind {
        return Err(SnapshotError::KindMismatch {
            found: kind,
            expected: expected_kind,
        });
    }
    if elem_tag != E::SNAPSHOT_TAG {
        return Err(SnapshotError::BackendMismatch {
            found: elem_tag,
            expected: E::SNAPSHOT_TAG,
        });
    }
    let slices = parse_table(bytes, count)?;
    Ok(Sections { bytes, slices })
}

/// Bounds-checked sequential reads within one section payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8], section: &'static str) -> Self {
        Self {
            buf,
            pos: 0,
            section,
        }
    }

    fn corrupt(&self, reason: impl Into<String>) -> SnapshotError {
        corrupt(self.section, reason)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                corrupt(
                    self.section,
                    format!("read past the end of the section (at byte {})", self.pos),
                )
            })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u64_val(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(fixed(self.take(8)?)))
    }

    fn usize_val(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64_val()?;
        usize::try_from(v).map_err(|_| corrupt(self.section, format!("value {v} overflows usize")))
    }

    fn f64_val(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_le_bytes(fixed(self.take(8)?)))
    }

    fn rest(&mut self) -> &'a [u8] {
        let slice = &self.buf[self.pos..];
        self.pos = self.buf.len();
        slice
    }

    fn finish(self) -> Result<(), SnapshotError> {
        if self.pos != self.buf.len() {
            return Err(corrupt(
                self.section,
                format!("{} unread trailing bytes", self.buf.len() - self.pos),
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Section codecs
// ---------------------------------------------------------------------

fn model_of<O>(kind: &FilterKind<O>) -> Result<&QseModel<O>, SnapshotError> {
    match kind {
        FilterKind::QuerySensitive { model } => Ok(model),
        FilterKind::GlobalL1 { .. } => Err(SnapshotError::GlobalFilterUnsupported),
    }
}

fn decode_model<O: JsonCodec + Clone + Send + Sync>(
    bytes: &[u8],
) -> Result<QseModel<O>, SnapshotError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| corrupt("model", "model JSON is not valid UTF-8"))?;
    QseModel::from_json(text).map_err(|e| corrupt("model", e.to_string()))
}

fn encode_params<E: FilterElem>(params: &E::Params) -> Vec<u8> {
    let mut out = Vec::new();
    E::params_to_bytes(params, &mut out);
    out
}

fn decode_params<E: FilterElem>(dim: usize, bytes: &[u8]) -> Result<E::Params, SnapshotError> {
    E::params_from_bytes(dim, bytes).ok_or_else(|| {
        corrupt(
            "params",
            format!(
                "parameter bytes do not decode as {} parameters of dimensionality {dim}",
                E::NAME
            ),
        )
    })
}

/// Store payload: `dim: u64`, `rows: u64`, then the raw element bytes
/// (little-endian, [`FilterElem::BYTES`] each) — 8-aligned in the stream.
fn encode_store<E: FilterElem>(store: &FlatStore<E>) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + store.as_slice().len() * E::BYTES);
    out.extend_from_slice(&(store.dim() as u64).to_le_bytes());
    out.extend_from_slice(&(store.len() as u64).to_le_bytes());
    E::elems_to_bytes(store.as_slice(), &mut out);
    out
}

fn decode_store<E: FilterElem>(
    section: &'static str,
    bytes: &[u8],
    params: E::Params,
    map: Option<MapSource<'_>>,
) -> Result<FlatStore<E>, SnapshotError> {
    let mut cur = Cursor::new(bytes, section);
    let dim = cur.usize_val()?;
    let rows = cur.usize_val()?;
    if let Some(src) = map {
        // Element bytes start at in-section offset 16 (after dim/rows),
        // which the format keeps 8-aligned in the stream. Any refusal
        // (size mismatch, misalignment, unsupported target) falls
        // through to the owned path below, which either copies the same
        // values or reports the typed corruption error.
        let start = src.section_start + cur.pos;
        if let Some(store) = FlatStore::from_mapped_parts(
            dim,
            rows,
            params.clone(),
            Arc::clone(src.region),
            start..start + (bytes.len() - cur.pos),
        ) {
            return Ok(store);
        }
    }
    let elems = E::elems_from_bytes(cur.rest())
        .ok_or_else(|| corrupt(section, "element bytes are not whole elements"))?;
    FlatStore::from_stored_parts(dim, rows, params, elems).ok_or_else(|| {
        corrupt(
            section,
            format!("element count does not match dim {dim} × rows {rows}"),
        )
    })
}

/// Cells payload: `dim: u64`, `count: u64`, then per cell `rows: u64` +
/// raw element bytes.
fn encode_cells<E: FilterElem>(cells: &[FlatStore<E>]) -> Vec<u8> {
    let dim = cells.first().map_or(0, FlatStore::dim);
    let mut out = Vec::new();
    out.extend_from_slice(&(dim as u64).to_le_bytes());
    out.extend_from_slice(&(cells.len() as u64).to_le_bytes());
    for cell in cells {
        out.extend_from_slice(&(cell.len() as u64).to_le_bytes());
        E::elems_to_bytes(cell.as_slice(), &mut out);
    }
    out
}

fn decode_cells<E: FilterElem>(
    bytes: &[u8],
    dim: usize,
    params: &E::Params,
    map: Option<MapSource<'_>>,
) -> Result<Vec<FlatStore<E>>, SnapshotError> {
    let mut cur = Cursor::new(bytes, "cells");
    let stored_dim = cur.usize_val()?;
    if stored_dim != dim {
        return Err(cur.corrupt(format!(
            "cell dim {stored_dim} does not match model dim {dim}"
        )));
    }
    let count = cur.usize_val()?;
    let mut cells = Vec::new();
    for _ in 0..count {
        let rows = cur.usize_val()?;
        let byte_count = rows
            .checked_mul(dim)
            .and_then(|v| v.checked_mul(E::BYTES))
            .ok_or_else(|| cur.corrupt("cell byte count overflows"))?;
        let elem_pos = cur.pos;
        let raw = cur.take(byte_count)?;
        if let Some(src) = map {
            // Every cell slices its own disjoint range of the one shared
            // mapping (the Arc clone bumps a refcount, nothing is
            // remapped). Refusals fall through to the copying path.
            let start = src.section_start + elem_pos;
            if let Some(store) = FlatStore::from_mapped_parts(
                dim,
                rows,
                params.clone(),
                Arc::clone(src.region),
                start..start + byte_count,
            ) {
                cells.push(store);
                continue;
            }
        }
        let elems = E::elems_from_bytes(raw)
            .ok_or_else(|| cur.corrupt("cell element bytes are not whole elements"))?;
        let store = FlatStore::from_stored_parts(dim, rows, params.clone(), elems)
            .ok_or_else(|| cur.corrupt("cell element count mismatch"))?;
        cells.push(store);
    }
    cur.finish()?;
    Ok(cells)
}

/// Ids payload: `count: u64`, then per cell `len: u64` + that many `u64`
/// global ids. Generic over the list representation so both owned
/// routing-state lists (`Vec<usize>`) and a routed index's [`IdList`]s
/// (possibly still mapped) encode identically.
fn encode_ids<L: std::ops::Deref<Target = [usize]>>(ids: &[L]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(ids.len() as u64).to_le_bytes());
    for cell in ids {
        out.extend_from_slice(&(cell.len() as u64).to_le_bytes());
        for &g in cell.iter() {
            out.extend_from_slice(&(g as u64).to_le_bytes());
        }
    }
    out
}

/// Decode the per-cell id lists **and** prove they are a permutation of
/// `0..len` in the same pass over the section bytes: every id is
/// bounds-checked against `len`, duplicate-checked against a bitset, and
/// counted. Fusing the validation into the decode loop keeps this — the
/// largest non-store section of a routed snapshot — to one sweep on the
/// startup path.
///
/// With a [`MapSource`], each validated cell borrows its words straight
/// out of the mapping ([`IdList::Mapped`]) instead of copying them onto
/// the heap — the sweep then only *reads* the section (for the
/// permutation proof) and allocates nothing per id. Any per-cell refusal
/// (misalignment, unsupported target) falls back to an owned copy of
/// just that cell.
fn decode_ids(
    bytes: &[u8],
    len: usize,
    map: Option<MapSource<'_>>,
) -> Result<Vec<IdList>, SnapshotError> {
    let mut cur = Cursor::new(bytes, "ids");
    let count = cur.usize_val()?;
    if count > bytes.len() / 8 {
        // A hostile count cannot reserve more than the section could
        // possibly hold (every cell costs at least its length header).
        return Err(cur.corrupt(format!("{count} id cells cannot fit the section")));
    }
    let mut seen = vec![0u64; len.div_ceil(64)];
    let mut total = 0usize;
    let mut ids = Vec::with_capacity(count);
    for _ in 0..count {
        let n = cur.usize_val()?;
        let byte_count = n
            .checked_mul(8)
            .ok_or_else(|| cur.corrupt("id cell byte count overflows"))?;
        let elem_pos = cur.pos;
        let raw = cur.take(byte_count)?;
        for w in raw.chunks_exact(8) {
            let g = u64::from_le_bytes(fixed(w));
            if g >= len as u64 {
                return Err(corrupt(
                    "ids",
                    format!("ids are not a permutation of 0..{len} (id {g})"),
                ));
            }
            // Lossless: g < len <= usize::MAX.
            let g = g as usize;
            let (word, bit) = (g >> 6, 1u64 << (g & 63));
            // SAFETY: g < len, so word = g/64 < len.div_ceil(64), which
            // is exactly `seen.len()` — the checked range test above is
            // the bounds proof the compiler cannot derive on its own,
            // and this sweep runs once per id on every routed load.
            let slot = unsafe { seen.get_unchecked_mut(word) };
            if *slot & bit != 0 {
                return Err(corrupt(
                    "ids",
                    format!("ids are not a permutation of 0..{len} (duplicate id {g})"),
                ));
            }
            *slot |= bit;
        }
        total += n;
        let mapped = map.and_then(|src| {
            let start = src.section_start + elem_pos;
            MappedWords::new(Arc::clone(src.region), start..start + byte_count)
        });
        ids.push(match mapped {
            Some(words) => IdList::Mapped(words),
            None => IdList::Owned(
                raw.chunks_exact(8)
                    .map(|w| u64::from_le_bytes(fixed(w)) as usize)
                    .collect(),
            ),
        });
    }
    if total != len {
        return Err(corrupt(
            "ids",
            format!("{total} ids for {len} database rows"),
        ));
    }
    cur.finish()?;
    Ok(ids)
}

/// Locs payload: `len: u64`, then per global id `cell: u64` + `pos: u64`.
fn encode_locs(locs: &[(usize, usize)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + locs.len() * 16);
    out.extend_from_slice(&(locs.len() as u64).to_le_bytes());
    for &(cell, pos) in locs {
        out.extend_from_slice(&(cell as u64).to_le_bytes());
        out.extend_from_slice(&(pos as u64).to_le_bytes());
    }
    out
}

fn decode_locs(bytes: &[u8]) -> Result<Vec<(usize, usize)>, SnapshotError> {
    let mut cur = Cursor::new(bytes, "locs");
    let len = cur.usize_val()?;
    let raw = cur.take(
        len.checked_mul(16)
            .ok_or_else(|| cur.corrupt("loc byte count overflows"))?,
    )?;
    let mut locs = Vec::with_capacity(len);
    for pair in raw.chunks_exact(16) {
        let cell = u64::from_le_bytes(fixed(&pair[..8]));
        let pos = u64::from_le_bytes(fixed(&pair[8..]));
        let cell = usize::try_from(cell)
            .map_err(|_| corrupt("locs", format!("value {cell} overflows usize")))?;
        let pos = usize::try_from(pos)
            .map_err(|_| corrupt("locs", format!("value {pos} overflows usize")))?;
        locs.push((cell, pos));
    }
    cur.finish()?;
    Ok(locs)
}

/// Routing-config payload: `cells`, `n_probe`, `seed`, `max_iters`, each
/// a `u64`.
fn encode_routing_config(config: &RoutedConfig) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(&(config.cells as u64).to_le_bytes());
    out.extend_from_slice(&(config.n_probe as u64).to_le_bytes());
    out.extend_from_slice(&config.seed.to_le_bytes());
    out.extend_from_slice(&(config.max_iters as u64).to_le_bytes());
    out
}

fn decode_routing_config(bytes: &[u8]) -> Result<RoutedConfig, SnapshotError> {
    let mut cur = Cursor::new(bytes, "routing_config");
    let cells = cur.usize_val()?;
    let n_probe = cur.usize_val()?;
    let seed = cur.u64_val()?;
    let max_iters = cur.usize_val()?;
    cur.finish()?;
    if cells == 0 || n_probe == 0 {
        return Err(corrupt("routing_config", "cells and n_probe must be >= 1"));
    }
    Ok(RoutedConfig {
        cells,
        n_probe,
        seed,
        max_iters,
    })
}

fn decode_p_scale(bytes_val: f64) -> Result<f64, SnapshotError> {
    if !bytes_val.is_finite() || bytes_val < 1.0 {
        return Err(corrupt(
            "knobs",
            format!("p_scale must be finite and >= 1.0, got {bytes_val}"),
        ));
    }
    Ok(bytes_val)
}

/// Knobs payload of static/dynamic snapshots: `p_scale: f64` only.
fn decode_knobs_plain(bytes: &[u8]) -> Result<f64, SnapshotError> {
    let mut cur = Cursor::new(bytes, "knobs");
    let p_scale = cur.f64_val()?;
    cur.finish()?;
    decode_p_scale(p_scale)
}

/// Knobs payload of routed snapshots: `p_scale: f64`, `n_probe: u64`,
/// `len: u64`.
fn decode_knobs_routed(bytes: &[u8]) -> Result<(f64, usize, usize), SnapshotError> {
    let mut cur = Cursor::new(bytes, "knobs");
    let p_scale = cur.f64_val()?;
    let n_probe = cur.usize_val()?;
    let len = cur.usize_val()?;
    cur.finish()?;
    Ok((decode_p_scale(p_scale)?, n_probe, len))
}

fn decode_objects<O: JsonCodec>(bytes: &[u8]) -> Result<Vec<O>, SnapshotError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| corrupt("objects", "objects JSON is not valid UTF-8"))?;
    let value = JsonValue::parse(text).map_err(|e| corrupt("objects", e.to_string()))?;
    Vec::<O>::from_json_value(&value).map_err(|e| corrupt("objects", e.to_string()))
}

/// The routed state shared by [`RoutedIndex`] and a routing-enabled
/// [`DynamicIndex`]: router centroids, per-cell stores, id maps — decoded
/// and cross-validated (cells ↔ centroids ↔ ids ↔ `len` must agree, and
/// the ids must partition `0..len` exactly once).
struct RoutedParts<E: FilterElem> {
    router: KMeans,
    cells: Vec<FlatStore<E>>,
    /// Mapped when loading through `load_mmap` (zero-copy, like the cell
    /// stores), owned otherwise. The dynamic loader converts to owned
    /// vectors since its routing state mutates ids in place.
    ids: Vec<IdList>,
}

fn decode_routed_parts<E: FilterElem>(
    sections: &Sections<'_>,
    dim: usize,
    params: &E::Params,
    len: usize,
    map: Option<&Arc<MapRegion>>,
) -> Result<RoutedParts<E>, SnapshotError> {
    let centroids: FlatVectors = decode_store(
        "centroids",
        sections.get(SEC_CENTROIDS)?,
        (),
        sections.source(SEC_CENTROIDS, map),
    )?;
    if centroids.is_empty() {
        return Err(corrupt("centroids", "the router needs at least one cell"));
    }
    if centroids.dim() != dim {
        return Err(corrupt(
            "centroids",
            format!(
                "centroid dim {} does not match model dim {dim}",
                centroids.dim()
            ),
        ));
    }
    let router = KMeans::from_centroids(centroids);
    let cells = decode_cells::<E>(
        sections.get(SEC_CELLS)?,
        dim,
        params,
        sections.source(SEC_CELLS, map),
    )?;
    if cells.len() != router.cells() {
        return Err(corrupt(
            "cells",
            format!(
                "{} cell stores for {} centroids",
                cells.len(),
                router.cells()
            ),
        ));
    }
    let ids = decode_ids(sections.get(SEC_IDS)?, len, sections.source(SEC_IDS, map))?;
    if ids.len() != cells.len() {
        return Err(corrupt(
            "ids",
            format!("{} id lists for {} cells", ids.len(), cells.len()),
        ));
    }
    // decode_ids proved the permutation property; per-cell agreement
    // with the stores is all that is left to check.
    for (c, cell_ids) in ids.iter().enumerate() {
        if cell_ids.len() != cells[c].len() {
            return Err(corrupt(
                "ids",
                format!(
                    "cell {c} has {} ids but {} rows",
                    cell_ids.len(),
                    cells[c].len()
                ),
            ));
        }
    }
    Ok(RoutedParts { router, cells, ids })
}

// ---------------------------------------------------------------------
// FilterRefineIndex
// ---------------------------------------------------------------------

impl<O, E> FilterRefineIndex<O, E>
where
    O: JsonCodec + Clone + Send + Sync,
    E: FilterElem,
{
    /// Serialize the complete index state into the snapshot byte format
    /// (see the module docs for the layout).
    ///
    /// # Errors
    /// [`SnapshotError::GlobalFilterUnsupported`] for a global-L1 index
    /// (its boxed embedding has no serialized form).
    pub fn to_snapshot_bytes(&self) -> Result<Vec<u8>, SnapshotError> {
        let model = model_of(&self.kind)?;
        let mut w = Writer::new(KIND_STATIC, E::SNAPSHOT_TAG);
        w.section(SEC_MODEL, model.to_json().into_bytes());
        w.section(SEC_PARAMS, encode_params::<E>(self.vectors.params()));
        w.section(SEC_STORE, encode_store(&self.vectors));
        w.section(SEC_KNOBS, self.p_scale.to_le_bytes().to_vec());
        Ok(w.finish())
    }

    /// Reconstruct an index from [`Self::to_snapshot_bytes`] output. The
    /// loaded index retrieves **bit-identically** to the saved one (the
    /// store bytes, model weights and `p_scale` all round-trip exactly).
    ///
    /// # Errors
    /// A typed [`SnapshotError`] on any mismatch or corruption — this
    /// never panics, whatever the bytes (see the module docs).
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        Self::decode_snapshot(bytes, None)
    }

    /// Reconstruct an index whose store borrows its element bytes
    /// **zero-copy** out of an `mmap`ed snapshot: nothing is copied, the
    /// OS pages elements in on first touch, and retrieval is
    /// bit-identical to [`Self::from_snapshot_bytes`] over the same
    /// file. Header, table and every section checksum are verified
    /// before anything is trusted, exactly as on the owned path.
    ///
    /// # Errors
    /// The same typed [`SnapshotError`]s as the owned loader.
    pub fn from_mapped(region: Arc<MapRegion>) -> Result<Self, SnapshotError> {
        Self::decode_snapshot(region.as_bytes(), Some(&region))
    }

    /// Map `path` and load it via [`Self::from_mapped`]; if the file
    /// cannot be mapped at all (unsupported target, empty file, syscall
    /// failure) fall back to the owned [`Self::load`], which yields
    /// identical results — so callers never need to branch on mapping
    /// support. Note the one inherent `mmap` caveat: a file truncated or
    /// rewritten in place by *another process while mapped* can fault on
    /// first element touch ([`Self::save`] never does that — it replaces
    /// the file by rename); files truncated before loading fail with typed
    /// errors as always.
    ///
    /// # Errors
    /// As [`Self::from_mapped`] / [`Self::load`].
    pub fn load_mmap(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        match MapRegion::map_path(&path) {
            Ok(region) => Self::from_mapped(region),
            Err(_) => Self::load(path),
        }
    }

    /// `true` when the store's element bytes are borrowed from a memory
    /// mapping (see [`Self::from_mapped`]).
    pub fn store_is_mapped(&self) -> bool {
        self.vectors.is_mapped()
    }

    /// Heap bytes held for store element data — `0` when mapped, the
    /// memory axis of the serving Pareto reports.
    pub fn store_heap_bytes(&self) -> usize {
        self.vectors.heap_bytes()
    }

    fn decode_snapshot(bytes: &[u8], map: Option<&Arc<MapRegion>>) -> Result<Self, SnapshotError> {
        let sections = parse_typed::<E>(bytes, KIND_STATIC)?;
        let model: QseModel<O> = decode_model(sections.get(SEC_MODEL)?)?;
        let dim = model.dim();
        let params = decode_params::<E>(dim, sections.get(SEC_PARAMS)?)?;
        let vectors = decode_store::<E>(
            "store",
            sections.get(SEC_STORE)?,
            params,
            sections.source(SEC_STORE, map),
        )?;
        if vectors.dim() != dim {
            return Err(corrupt(
                "store",
                format!("store dim {} does not match model dim {dim}", vectors.dim()),
            ));
        }
        if vectors.is_empty() {
            return Err(corrupt("store", "a static index is never empty"));
        }
        let p_scale = decode_knobs_plain(sections.get(SEC_KNOBS)?)?;
        Ok(Self {
            kind: FilterKind::QuerySensitive { model },
            vectors,
            p_scale,
        })
    }

    /// [`Self::to_snapshot_bytes`] written to `path` atomically — to a
    /// temporary file in the same directory, `sync_all`ed, then renamed
    /// over `path` — so an index [`Self::load_mmap`]ed from the old file
    /// keeps answering from it.
    ///
    /// # Errors
    /// As [`Self::to_snapshot_bytes`], plus [`SnapshotError::Io`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        write_atomically(path.as_ref(), &self.to_snapshot_bytes()?)
    }

    /// [`Self::from_snapshot_bytes`] read from `path`.
    ///
    /// # Errors
    /// As [`Self::from_snapshot_bytes`], plus [`SnapshotError::Io`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        Self::from_snapshot_bytes(&std::fs::read(path)?)
    }
}

/// Write `bytes` to `path` so that `path` names either the old file or
/// the complete new one, never a partial write: the bytes go to a
/// temporary file in the same directory, are `sync_all`ed, and the
/// temporary is renamed over `path`. Because the old file is replaced
/// rather than truncated and rewritten, a `load_mmap`ed index over it
/// keeps its pages (the mapping holds the old inode) — an in-place write
/// would fault it with `SIGBUS` or change its answers under it.
fn write_atomically(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let name = path.file_name().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("snapshot path {} has no file name", path.display()),
        )
    })?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(name);
    tmp_name.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);
    let written = std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&tmp)
        .and_then(|mut file| {
            file.write_all(bytes)?;
            file.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    Ok(written?)
}

// ---------------------------------------------------------------------
// RoutedIndex
// ---------------------------------------------------------------------

impl<O, E> RoutedIndex<O, E>
where
    O: JsonCodec + Clone + Send + Sync,
    E: FilterElem,
{
    /// Serialize the complete routed state — model, shared store
    /// parameters, router centroids, per-cell stores, id maps and the
    /// `p_scale`/`n_probe` knobs (see the module docs for the layout).
    ///
    /// # Errors
    /// [`SnapshotError::GlobalFilterUnsupported`] for a global-L1 index.
    pub fn to_snapshot_bytes(&self) -> Result<Vec<u8>, SnapshotError> {
        let model = model_of(&self.kind)?;
        let mut w = Writer::new(KIND_ROUTED, E::SNAPSHOT_TAG);
        w.section(SEC_MODEL, model.to_json().into_bytes());
        let params = self
            .cells
            .first()
            .map(FlatStore::params)
            .expect("a routed index always has at least one cell");
        w.section(SEC_PARAMS, encode_params::<E>(params));
        let mut knobs = Vec::with_capacity(24);
        knobs.extend_from_slice(&self.p_scale.to_le_bytes());
        knobs.extend_from_slice(&(self.n_probe as u64).to_le_bytes());
        knobs.extend_from_slice(&(self.len as u64).to_le_bytes());
        w.section(SEC_KNOBS, knobs);
        w.section(SEC_CENTROIDS, encode_store(self.router.centroids()));
        w.section(SEC_CELLS, encode_cells(&self.cells));
        w.section(SEC_IDS, encode_ids(&self.ids));
        Ok(w.finish())
    }

    /// Reconstruct a routed index from [`Self::to_snapshot_bytes`]
    /// output. Routing, filter scores and refine results are
    /// **bit-identical** to the saved index at any thread count.
    ///
    /// # Errors
    /// A typed [`SnapshotError`] on any mismatch or corruption; never
    /// panics, whatever the bytes.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        Self::decode_snapshot(bytes, None)
    }

    /// Reconstruct a routed index whose cell stores all borrow
    /// **zero-copy** out of one shared `mmap`ed snapshot — every cell
    /// slices its own disjoint range of a single mapping (no per-cell
    /// maps, no copies), and the mapping lives until the last cell
    /// drops. Checksums are verified before anything is trusted;
    /// retrieval is bit-identical to the owned loader at any `n_probe`
    /// and thread count.
    ///
    /// # Errors
    /// The same typed [`SnapshotError`]s as the owned loader.
    pub fn from_mapped(region: Arc<MapRegion>) -> Result<Self, SnapshotError> {
        Self::decode_snapshot(region.as_bytes(), Some(&region))
    }

    /// Map `path` and load it via [`Self::from_mapped`], falling back to
    /// the owned [`Self::load`] (identical results) when the file cannot
    /// be mapped at all — see
    /// [`FilterRefineIndex::load_mmap`](FilterRefineIndex::load_mmap)
    /// for the fallback and truncation-while-mapped caveats.
    ///
    /// # Errors
    /// As [`Self::from_mapped`] / [`Self::load`].
    pub fn load_mmap(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        match MapRegion::map_path(&path) {
            Ok(region) => Self::from_mapped(region),
            Err(_) => Self::load(path),
        }
    }

    /// `true` when every cell store borrows its element bytes from the
    /// shared mapping (see [`Self::from_mapped`]).
    pub fn store_is_mapped(&self) -> bool {
        self.cells.iter().all(FlatStore::is_mapped)
    }

    /// Heap bytes held for cell element data across all cells — `0`
    /// when mapped, the memory axis of the serving Pareto reports.
    pub fn store_heap_bytes(&self) -> usize {
        self.cells.iter().map(FlatStore::heap_bytes).sum()
    }

    fn decode_snapshot(bytes: &[u8], map: Option<&Arc<MapRegion>>) -> Result<Self, SnapshotError> {
        let sections = parse_typed::<E>(bytes, KIND_ROUTED)?;
        let model: QseModel<O> = decode_model(sections.get(SEC_MODEL)?)?;
        let dim = model.dim();
        let params = decode_params::<E>(dim, sections.get(SEC_PARAMS)?)?;
        let (p_scale, n_probe, len) = decode_knobs_routed(sections.get(SEC_KNOBS)?)?;
        if len == 0 {
            return Err(corrupt("knobs", "a routed index is never empty"));
        }
        let parts = decode_routed_parts::<E>(&sections, dim, &params, len, map)?;
        if n_probe == 0 || n_probe > parts.cells.len() {
            return Err(corrupt(
                "knobs",
                format!("n_probe {n_probe} outside 1..={}", parts.cells.len()),
            ));
        }
        Ok(Self {
            kind: FilterKind::QuerySensitive { model },
            router: parts.router,
            cells: parts.cells,
            ids: parts.ids,
            n_probe,
            p_scale,
            len,
        })
    }

    /// [`Self::to_snapshot_bytes`] written to `path` atomically — to a
    /// temporary file in the same directory, `sync_all`ed, then renamed
    /// over `path` — so an index [`Self::load_mmap`]ed from the old file
    /// keeps answering from it.
    ///
    /// # Errors
    /// As [`Self::to_snapshot_bytes`], plus [`SnapshotError::Io`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        write_atomically(path.as_ref(), &self.to_snapshot_bytes()?)
    }

    /// [`Self::from_snapshot_bytes`] read from `path`.
    ///
    /// # Errors
    /// As [`Self::from_snapshot_bytes`], plus [`SnapshotError::Io`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        Self::from_snapshot_bytes(&std::fs::read(path)?)
    }
}

// ---------------------------------------------------------------------
// DynamicIndex
// ---------------------------------------------------------------------

impl<O, E> DynamicIndex<O, E>
where
    O: JsonCodec + Clone + Send + Sync,
    E: FilterElem,
{
    /// Serialize the complete dynamic state: model, store, **objects**
    /// (a dynamic index owns its collection — serialized through the
    /// object type's [`JsonCodec`]), the `p_scale` knob and, when routing
    /// is enabled, the full routing metadata including the `locs` inverse
    /// map (see the module docs for the layout).
    pub fn to_snapshot_bytes(&self) -> Result<Vec<u8>, SnapshotError> {
        let mut w = Writer::new(KIND_DYNAMIC, E::SNAPSHOT_TAG);
        w.section(SEC_MODEL, self.model.to_json().into_bytes());
        w.section(SEC_PARAMS, encode_params::<E>(self.vectors.params()));
        w.section(SEC_STORE, encode_store(&self.vectors));
        w.section(SEC_KNOBS, self.p_scale.to_le_bytes().to_vec());
        w.section(
            SEC_OBJECTS,
            self.objects.to_json_value().dump().into_bytes(),
        );
        if let Some(r) = &self.routing {
            w.section(SEC_CENTROIDS, encode_store(r.router.centroids()));
            w.section(SEC_CELLS, encode_cells(&r.cells));
            w.section(SEC_IDS, encode_ids(&r.ids));
            w.section(SEC_LOCS, encode_locs(&r.locs));
            w.section(SEC_ROUTING, encode_routing_config(&r.config));
        }
        Ok(w.finish())
    }

    /// Reconstruct a dynamic index from [`Self::to_snapshot_bytes`]
    /// output — including one that was churned (inserted into, removed
    /// from, refitted) before saving; retrieval is **bit-identical** to
    /// the saved index at any thread count, and editing can continue.
    ///
    /// # Errors
    /// A typed [`SnapshotError`] on any mismatch or corruption; never
    /// panics, whatever the bytes.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        Self::decode_snapshot(bytes, None)
    }

    /// Reconstruct a dynamic index whose store (and, when routing is
    /// enabled, every routing cell) borrows **zero-copy** out of one
    /// shared `mmap`ed snapshot. The index stays fully editable: the
    /// first mutation of any mapped store copies it to a private owned
    /// buffer (copy-on-first-write), so edits never touch the snapshot
    /// file and untouched stores keep serving from the page cache.
    /// Checksums are verified before anything is trusted; retrieval is
    /// bit-identical to the owned loader at any thread count.
    ///
    /// # Errors
    /// The same typed [`SnapshotError`]s as the owned loader.
    pub fn from_mapped(region: Arc<MapRegion>) -> Result<Self, SnapshotError> {
        Self::decode_snapshot(region.as_bytes(), Some(&region))
    }

    /// Map `path` and load it via [`Self::from_mapped`], falling back to
    /// the owned [`Self::load`] (identical results) when the file cannot
    /// be mapped at all — see
    /// [`FilterRefineIndex::load_mmap`](FilterRefineIndex::load_mmap)
    /// for the fallback and truncation-while-mapped caveats.
    ///
    /// # Errors
    /// As [`Self::from_mapped`] / [`Self::load`].
    pub fn load_mmap(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        match MapRegion::map_path(&path) {
            Ok(region) => Self::from_mapped(region),
            Err(_) => Self::load(path),
        }
    }

    /// `true` when the flat store and every routing cell still borrow
    /// their element bytes from the mapping (mutation turns this `false`
    /// store by store — see [`Self::from_mapped`]).
    pub fn store_is_mapped(&self) -> bool {
        self.vectors.is_mapped()
            && self
                .routing
                .as_ref()
                .is_none_or(|r| r.cells.iter().all(FlatStore::is_mapped))
    }

    /// Heap bytes held for element data across the flat store and any
    /// routing cells — `0` while fully mapped.
    pub fn store_heap_bytes(&self) -> usize {
        self.vectors.heap_bytes()
            + self.routing.as_ref().map_or(0, |r| {
                r.cells.iter().map(FlatStore::heap_bytes).sum::<usize>()
            })
    }

    fn decode_snapshot(bytes: &[u8], map: Option<&Arc<MapRegion>>) -> Result<Self, SnapshotError> {
        let sections = parse_typed::<E>(bytes, KIND_DYNAMIC)?;
        let model: QseModel<O> = decode_model(sections.get(SEC_MODEL)?)?;
        let embedding = model.embedding();
        let dim = model.dim();
        let params = decode_params::<E>(dim, sections.get(SEC_PARAMS)?)?;
        let vectors = decode_store::<E>(
            "store",
            sections.get(SEC_STORE)?,
            params.clone(),
            sections.source(SEC_STORE, map),
        )?;
        if vectors.dim() != dim {
            return Err(corrupt(
                "store",
                format!("store dim {} does not match model dim {dim}", vectors.dim()),
            ));
        }
        let p_scale = decode_knobs_plain(sections.get(SEC_KNOBS)?)?;
        let objects: Vec<O> = decode_objects(sections.get(SEC_OBJECTS)?)?;
        if objects.len() != vectors.len() {
            return Err(corrupt(
                "objects",
                format!("{} objects for {} store rows", objects.len(), vectors.len()),
            ));
        }
        let routing = match sections.get_opt(SEC_ROUTING) {
            None => None,
            Some(config_bytes) => {
                let config = decode_routing_config(config_bytes)?;
                let parts = decode_routed_parts::<E>(&sections, dim, &params, objects.len(), map)?;
                let locs = decode_locs(sections.get(SEC_LOCS)?)?;
                if locs.len() != objects.len() {
                    return Err(corrupt(
                        "locs",
                        format!("{} locs for {} objects", locs.len(), objects.len()),
                    ));
                }
                for (g, &(cell, pos)) in locs.iter().enumerate() {
                    if cell >= parts.ids.len()
                        || pos >= parts.ids[cell].len()
                        || parts.ids[cell][pos] != g
                    {
                        return Err(corrupt(
                            "locs",
                            format!("locs is not the inverse of ids at global id {g}"),
                        ));
                    }
                }
                Some(RoutingState {
                    router: parts.router,
                    cells: parts.cells,
                    // The routing state mutates its id lists on every
                    // insert/remove, so mapped lists materialize here
                    // (the cell *stores* stay mapped until first write).
                    ids: parts.ids.into_iter().map(IdList::into_owned).collect(),
                    locs,
                    config,
                })
            }
        };
        Ok(Self {
            model,
            embedding,
            objects,
            vectors,
            p_scale,
            routing,
        })
    }

    /// [`Self::to_snapshot_bytes`] written to `path` atomically — to a
    /// temporary file in the same directory, `sync_all`ed, then renamed
    /// over `path` — so an index [`Self::load_mmap`]ed from the old file
    /// keeps answering from it.
    ///
    /// # Errors
    /// As [`Self::to_snapshot_bytes`], plus [`SnapshotError::Io`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        write_atomically(path.as_ref(), &self.to_snapshot_bytes()?)
    }

    /// [`Self::from_snapshot_bytes`] read from `path`.
    ///
    /// # Errors
    /// As [`Self::from_snapshot_bytes`], plus [`SnapshotError::Io`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        Self::from_snapshot_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_checksum_is_deterministic_and_bit_sensitive() {
        // Deterministic, and the length fold separates all-zero inputs
        // of different sizes (a truncated padded payload never verifies).
        let zeros = vec![0u8; 256];
        assert_eq!(section_checksum(&zeros), section_checksum(&zeros));
        assert_ne!(section_checksum(&zeros[..248]), section_checksum(&zeros));
        assert_ne!(section_checksum(&[]), section_checksum(&[0]));
        // Any single-bit flip changes the checksum, wherever it lands:
        // every lane of the 64-byte group stripe, the sub-group byte
        // tail, and the trailing padding region are all covered.
        let base: Vec<u8> = (0..200u16).map(|i| (i * 37 % 251) as u8).collect();
        let h = section_checksum(&base);
        for pos in [0, 7, 8, 63, 64, 127, 128, 191, 192, 199] {
            for bit in [0, 4, 7] {
                let mut flipped = base.clone();
                flipped[pos] ^= 1 << bit;
                assert_ne!(
                    section_checksum(&flipped),
                    h,
                    "flip at byte {pos} bit {bit} must change the checksum"
                );
            }
        }
    }

    #[test]
    fn writer_produces_aligned_sections() {
        let mut w = Writer::new(KIND_STATIC, 1);
        w.section(SEC_MODEL, vec![1, 2, 3]); // 3 bytes -> padded to 8
        w.section(SEC_KNOBS, vec![0; 8]);
        let bytes = w.finish();
        let sections = snapshot_sections(&bytes).unwrap();
        assert_eq!(sections.len(), 2);
        for (name, range) in &sections {
            assert_eq!(range.start % 8, 0, "section `{name}` must start aligned");
        }
        assert_eq!(sections[0], ("model", 72..75));
        assert_eq!(sections[1], ("knobs", 80..88));
        assert_eq!(bytes.len(), 88);
    }

    #[test]
    fn empty_and_garbage_bytes_fail_typed() {
        assert!(matches!(
            snapshot_sections(&[]),
            Err(SnapshotError::Truncated { .. })
        ));
        assert!(matches!(
            snapshot_sections(&[0xAB; 64]),
            Err(SnapshotError::BadMagic)
        ));
    }
}
