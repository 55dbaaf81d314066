//! Sharded fleet registries with indexed, sublinear leak identification.
//!
//! A single `EMFR` registry file works for thousands of devices but not
//! for millions: it must be decoded whole, and
//! [`crate::fleet::FleetVerifier::identify_leak_linear`] scores every
//! registered device against a suspect. This module scales both axes:
//!
//! * **Sharded layout** — device entries are split across
//!   `registry-NNNNN.emfr` shard files (each an ordinary `EMFR` registry
//!   over a contiguous device range) under an `EMFM` *manifest* that
//!   records per-shard ranges, byte lengths, and checksums. Shards are
//!   provisioned in parallel and written out one at a time, so peak
//!   memory is O(shard), not O(fleet).
//! * **Inverted leak index** — devices sample their fingerprint cells
//!   from *shared per-layer pools* ([`crate::fingerprint`]), so across
//!   the whole fleet only `layers × pool_size` distinct cells ever carry
//!   a fingerprint bit — independent of fleet size. The manifest
//!   persists a [`LeakIndex`]: for every such cell, the devices
//!   expecting `−1` and the devices expecting `+1` there. Identification
//!   reads the suspect's delta at each indexed cell *once*, counts exact
//!   per-device matched bits through the buckets, and runs the full
//!   Eq. 8 extraction only on the handful of devices whose counts clear
//!   the threshold. The index only narrows; Eq. 8 decides — verdicts
//!   are bit-identical to the linear scan.
//!
//! * **Persisted pools** — the pools themselves depend only on the
//!   vault and the fingerprint config, and the config is a provisioning
//!   flag, so they are known only at provision time. Version 2 of the
//!   manifest stores them ([`FingerprintPools`]), bound to the vault
//!   they were derived from; cold identification then builds its family
//!   cache from them in O(pool) instead of re-running Eqs. 2–4
//!   (DESIGN.md §10).
//!
//! ## `EMFM` wire format (version 2; version 1 is still read)
//!
//! Little-endian throughout, like every other codec in this crate:
//!
//! ```text
//! magic "EMFM" | manifest version u32 | shard registry version u32
//! fingerprint WatermarkConfig (32 bytes)
//! total device count u64 | shard count u32
//! per shard:  name string (u32 len + UTF-8) | first device u64
//!             | device count u64 | byte length u64 | FNV-1a checksum u64
//! index:      cell count u32
//! per cell:   layer u32 | flat offset u64
//!             | −1 bucket (u32 len + u32 device ids)
//!             | +1 bucket (u32 len + u32 device ids)
//! pools (v2): layer count u32 | per layer: cell count u32 | flat u64 × count
//!             | vault binding u64 | checksum u64
//! ```
//!
//! Version 1 ends after the index. The pools' `checksum` is the FNV-1a
//! hash of the fingerprint config bytes followed by the pools section up
//! to the checksum, so pools spliced from a manifest of another
//! fingerprint config fail to decode; `vault binding` is the key binding
//! of the vault the pools were derived from ([`crate::vault`]), checked
//! when a verifier is built over them.
//!
//! Decoding validates that shard ranges are contiguous from device 0
//! (no gaps, no overlaps) and sum to the total, that the shard registry
//! version matches the `EMFR` version this build writes
//! ([`CodecError::MixedVersion`] otherwise), that index cells are
//! strictly sorted by `(layer, flat)`, that every bucket is strictly
//! ascending with ids inside the device range, that each layer's pool
//! holds `pool_ratio × bits_per_layer` distinct cells, that every index
//! cell lies in its layer's pool, and that nothing follows the last
//! section.

use crate::deploy::{put_string, put_watermark_config, CodecError, Reader, Section};
use crate::fingerprint::{fxhash, fxhash_extend, DeviceFingerprint, Family, FamilyCache};
use crate::fleet::{
    encode_registry, par_map, read_device_entry, FleetVerifier, REGISTRY_MAGIC, REGISTRY_VERSION,
};
use crate::provision::FleetProvisioner;
use crate::signature::Signature;
use crate::store::StoreError;
use crate::telemetry::{self, Telemetry};
use crate::watermark::{GridSource, Locations, OwnerSecrets, WatermarkConfig, WatermarkError};
use bytes::{BufMut, Bytes, BytesMut};

pub(crate) const MANIFEST_MAGIC: &[u8; 4] = b"EMFM";
/// The manifest version this build writes (with pools); version 1
/// (without) is still read.
pub(crate) const MANIFEST_VERSION: u32 = 2;
const MANIFEST_V1: u32 = 1;
/// Where the fingerprint config sits in a manifest: after magic and two
/// version words.
const MANIFEST_CONFIG: std::ops::Range<usize> = 12..44;

/// One fingerprint cell's inverted-index entry: the devices whose
/// signatures expect `−1` respectively `+1` at `(layer, flat)`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct IndexCell {
    layer: u32,
    flat: u64,
    /// Devices expecting a `−1` delta here, ascending registration order.
    neg: Vec<u32>,
    /// Devices expecting a `+1` delta here, ascending registration order.
    pos: Vec<u32>,
}

/// Fingerprint-cell inverted index over a device registry.
///
/// Because devices draw their fingerprint locations from shared
/// per-layer pools, the index holds at most `layers × pool_size` cells
/// however many devices are registered — reading the suspect once at
/// those cells yields *exact* per-device matched-bit counts (each
/// device/cell pair appears in exactly one bucket, and an Eq. 6 delta
/// matches exactly one bucket per cell). That makes candidate
/// narrowing lossless: a device clears the Eq. 8 threshold iff its
/// bucket count does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakIndex {
    device_count: usize,
    /// Strictly sorted by `(layer, flat)`.
    cells: Vec<IndexCell>,
}

/// Incremental [`LeakIndex`] construction: devices are folded in one at
/// a time in registration order, so callers (notably
/// [`provision_sharded_into`]) never need the whole fleet's fingerprint
/// material resident at once — the builder holds only the growing
/// buckets, whose total size is `devices × fingerprint bits` ids.
pub(crate) struct LeakIndexBuilder {
    n_layers: usize,
    devices: usize,
    cells: std::collections::BTreeMap<(u32, u64), (Vec<u32>, Vec<u32>)>,
}

impl LeakIndexBuilder {
    pub(crate) fn new(n_layers: usize) -> Self {
        Self {
            n_layers,
            devices: 0,
            cells: std::collections::BTreeMap::new(),
        }
    }

    /// Folds in the next device's fingerprint material; devices are
    /// numbered by push order (global registration order).
    pub(crate) fn push(&mut self, sig: &Signature, locs: &Locations) {
        let d = self.devices;
        assert!(
            d < u32::MAX as usize,
            "leak index addresses devices with u32 ids"
        );
        for (l, layer_locs) in locs.iter().enumerate() {
            let bits = sig.layer_bits(l, self.n_layers);
            for (&f, &b) in layer_locs.iter().zip(bits) {
                let bucket = self.cells.entry((l as u32, f as u64)).or_default();
                if b < 0 {
                    bucket.0.push(d as u32);
                } else {
                    bucket.1.push(d as u32);
                }
            }
        }
        self.devices += 1;
    }

    pub(crate) fn finish(self) -> LeakIndex {
        let cells = self
            .cells
            .into_iter()
            .map(|((layer, flat), (neg, pos))| IndexCell {
                layer,
                flat,
                neg,
                pos,
            })
            .collect();
        LeakIndex {
            device_count: self.devices,
            cells,
        }
    }
}

impl LeakIndex {
    /// Builds the index from per-device fingerprint material in
    /// registration order.
    pub(crate) fn from_material<'a, I>(device_count: usize, n_layers: usize, material: I) -> Self
    where
        I: IntoIterator<Item = &'a (Signature, Locations)>,
    {
        let mut builder = LeakIndexBuilder::new(n_layers);
        for (sig, locs) in material {
            builder.push(sig, locs);
        }
        let index = builder.finish();
        assert_eq!(
            index.device_count, device_count,
            "material iterator covers every device"
        );
        index
    }

    /// Number of devices the index was built over.
    pub fn device_count(&self) -> usize {
        self.device_count
    }

    /// Number of distinct fingerprint cells indexed — bounded by
    /// `layers × pool_size`, independent of the device count.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// The first indexed cell falling outside `grid`'s layers, if any —
    /// a well-formed index over the matching registry never has one.
    pub(crate) fn cell_out_of_bounds<G: GridSource + ?Sized>(
        &self,
        grid: &G,
    ) -> Option<(usize, usize)> {
        let n = grid.source_layer_count();
        for c in &self.cells {
            let (l, f) = (c.layer as usize, c.flat as usize);
            if l >= n {
                return Some((l, f));
            }
            let (in_f, out_f) = grid.layer_dims(l);
            if f >= in_f * out_f {
                return Some((l, f));
            }
        }
        None
    }

    /// Devices whose exact matched-bit count against `suspect` (deltas
    /// taken against `reference`, Eq. 6) reaches `min_matched`, in
    /// ascending registration order.
    ///
    /// Counting is exact, not heuristic: every fingerprint bit of every
    /// device lives in exactly one bucket, and a suspect delta of `−1`
    /// or `+1` matches exactly that bucket (a delta of `0` or anything
    /// else matches no device's bit). `min_matched == 0` therefore
    /// returns every device, matching the linear scan's behaviour at a
    /// vacuous threshold.
    pub(crate) fn candidates<S, R>(
        &self,
        suspect: &S,
        reference: &R,
        min_matched: usize,
    ) -> Vec<usize>
    where
        S: GridSource + ?Sized,
        R: GridSource + ?Sized,
    {
        if min_matched == 0 {
            return (0..self.device_count).collect();
        }
        let mut counts = vec![0u32; self.device_count];
        for cell in &self.cells {
            let (l, f) = (cell.layer as usize, cell.flat as usize);
            let delta = suspect.q_at(l, f) as i16 - reference.q_at(l, f) as i16;
            let bucket = match delta {
                -1 => &cell.neg,
                1 => &cell.pos,
                _ => continue,
            };
            for &d in bucket {
                counts[d as usize] += 1;
            }
        }
        // An ordered sweep over the dense count array both filters and
        // yields ascending registration order in one pass — faster than
        // sorting a touched-device list when buckets are dense, which
        // they are whenever fleets share per-layer fingerprint pools.
        counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c as usize >= min_matched)
            .map(|(d, _)| d)
            .collect()
    }
}

/// One shard's entry in an [`ShardManifest`]: which file holds which
/// contiguous device range, and what its bytes must look like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// Shard file name, relative to the manifest (no path separators).
    pub name: String,
    /// First device (global registration index) in this shard.
    pub first_device: u64,
    /// Number of devices in this shard.
    pub device_count: u64,
    /// Exact byte length of the shard file.
    pub byte_len: u64,
    /// FNV-1a checksum of the shard file bytes.
    pub checksum: u64,
}

/// The `EMFM` manifest of a sharded fleet registry.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardManifest {
    /// The fingerprint parameters every shard was provisioned with.
    pub fingerprint_config: WatermarkConfig,
    /// Total devices across all shards.
    pub total_devices: u64,
    /// Shard entries, in device order (contiguous from device 0).
    pub shards: Vec<ShardEntry>,
    /// The fingerprint-cell inverted index over the whole fleet.
    pub index: LeakIndex,
    /// The fingerprint candidate pools (version 2 manifests; `None` for
    /// version 1, which [`encode_manifest`] then writes back).
    pub pools: Option<FingerprintPools>,
}

impl ShardManifest {
    /// The format version the manifest encodes as: 2 with pools, 1
    /// without.
    fn version(&self) -> u32 {
        if self.pools.is_some() {
            MANIFEST_VERSION
        } else {
            MANIFEST_V1
        }
    }

    /// [`load_sharded_registry`] over a manifest already decoded.
    ///
    /// # Errors
    ///
    /// [`load_sharded_registry`]'s shard errors.
    pub(crate) fn load_shards<F>(self, mut read_shard: F) -> Result<ShardedRegistry, StoreError>
    where
        F: FnMut(&str) -> std::io::Result<Vec<u8>>,
    {
        let mut devices = Vec::with_capacity(self.total_devices as usize);
        for (i, entry) in self.shards.iter().enumerate() {
            let bytes = read_shard(&entry.name).map_err(|e| StoreError::Io {
                what: "shard read",
                source: e,
            })?;
            devices.extend(decode_shard(&bytes, &self, i)?);
        }
        Ok(ShardedRegistry {
            fingerprint_config: self.fingerprint_config,
            devices,
            index: self.index,
            pools: self.pools,
        })
    }
}

/// The per-layer fingerprint candidate pools a version 2 manifest
/// persists, in pool order (devices sample by position in it), and the
/// key binding of the vault they were derived from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FingerprintPools {
    cells: Vec<Vec<usize>>,
    binding: u64,
}

impl FingerprintPools {
    /// Scores the pools for `secrets` under `fingerprint_config` —
    /// Eqs. 2–4 over the base-watermarked model, as
    /// [`FleetProvisioner::new`] scores them — the recomputation a
    /// manifest's pools must equal.
    ///
    /// # Errors
    ///
    /// Rejects inconsistent secrets or config, and propagates pool
    /// errors.
    pub fn derive(
        secrets: OwnerSecrets,
        fingerprint_config: WatermarkConfig,
    ) -> Result<Self, WatermarkError> {
        let provisioner = FleetProvisioner::new(secrets, fingerprint_config)?;
        Ok(Self::of(provisioner.family_cache()))
    }

    /// The pools of a family cache.
    pub(crate) fn of(cache: &FamilyCache) -> Self {
        Self {
            cells: cache.pools.clone(),
            binding: cache.family.binding(),
        }
    }

    /// Per layer, the pool's cells in pool order.
    pub fn cells(&self) -> &[Vec<usize>] {
        &self.cells
    }

    /// The key binding of the vault the pools were derived from.
    pub(crate) fn binding(&self) -> u64 {
        self.binding
    }
}

/// Canonical shard file name for shard `i`: `registry-00042.emfr`.
pub fn shard_file_name(i: usize) -> String {
    format!("registry-{i:05}.emfr")
}

/// The checksum of a shard file's bytes as recorded in its manifest
/// entry (FNV-1a) — exposed so external tooling can re-stamp entries
/// after rewriting a shard.
pub fn shard_checksum(bytes: &[u8]) -> u64 {
    fxhash(bytes)
}

/// Serializes an `EMFM` manifest.
pub fn encode_manifest(m: &ShardManifest) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + m.shards.len() * 64 + m.index.cells.len() * 48);
    buf.put_slice(MANIFEST_MAGIC);
    buf.put_u32_le(m.version());
    buf.put_u32_le(REGISTRY_VERSION);
    put_watermark_config(&mut buf, &m.fingerprint_config);
    buf.put_u64_le(m.total_devices);
    buf.put_u32_le(m.shards.len() as u32);
    for s in &m.shards {
        put_string(&mut buf, &s.name);
        buf.put_u64_le(s.first_device);
        buf.put_u64_le(s.device_count);
        buf.put_u64_le(s.byte_len);
        buf.put_u64_le(s.checksum);
    }
    buf.put_u32_le(m.index.cells.len() as u32);
    for c in &m.index.cells {
        buf.put_u32_le(c.layer);
        buf.put_u64_le(c.flat);
        for bucket in [&c.neg, &c.pos] {
            buf.put_u32_le(bucket.len() as u32);
            for &d in bucket {
                buf.put_u32_le(d);
            }
        }
    }
    if let Some(pools) = &m.pools {
        let start = buf.len();
        buf.put_u32_le(pools.cells.len() as u32);
        for layer in &pools.cells {
            buf.put_u32_le(layer.len() as u32);
            for &f in layer {
                buf.put_u64_le(f as u64);
            }
        }
        buf.put_u64_le(pools.binding);
        let checksum = fxhash_extend(fxhash(&buf[MANIFEST_CONFIG]), &buf[start..]);
        buf.put_u64_le(checksum);
    }
    buf.freeze()
}

fn read_shard_entry(r: &mut Reader, i: usize) -> Result<ShardEntry, CodecError> {
    r.enter(Section::Shard(i));
    let name = r.string("shard name")?;
    if name.is_empty() || name.contains(['/', '\\']) || name.contains("..") {
        return Err(r.corrupt(format!(
            "shard name {name:?} is empty or escapes the manifest directory"
        )));
    }
    Ok(ShardEntry {
        name,
        first_device: r.u64("shard first device")?,
        device_count: r.u64("shard device count")?,
        byte_len: r.u64("shard byte length")?,
        checksum: r.u64("shard checksum")?,
    })
}

fn read_bucket(r: &mut Reader, total: u64, what: &'static str) -> Result<Vec<u32>, CodecError> {
    let len = r.u32(what)? as usize;
    r.need(len.saturating_mul(4), what)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let d = r.u32(what)?;
        if d as u64 >= total {
            return Err(r.corrupt(format!("{what} names device {d}, registry has {total}")));
        }
        if let Some(&prev) = out.last() {
            if d <= prev {
                return Err(r.corrupt(format!("{what} not strictly ascending ({prev} then {d})")));
            }
        }
        out.push(d);
    }
    Ok(out)
}

/// Deserializes an `EMFM` manifest written by [`encode_manifest`].
///
/// # Errors
///
/// [`CodecError::BadMagic`]/[`CodecError::BadVersion`] for foreign or
/// unsupported inputs, [`CodecError::MixedVersion`] when the manifest
/// declares shards of a registry version this build does not write, and
/// [`CodecError::Truncated`]/[`CodecError::Corrupt`] (overlapping or
/// gapped shard ranges, unsorted index, out-of-range device ids) for
/// malformed ones.
pub fn decode_manifest(bytes: &[u8]) -> Result<ShardManifest, CodecError> {
    let mut r = Reader::new(bytes, Section::Manifest);
    r.magic(MANIFEST_MAGIC)?;
    let version = r.u32("manifest version")?;
    if version != MANIFEST_VERSION && version != MANIFEST_V1 {
        return Err(CodecError::BadVersion(version));
    }
    let registry_version = r.u32("shard registry version")?;
    if registry_version != REGISTRY_VERSION {
        return Err(CodecError::MixedVersion {
            outer: version,
            inner: registry_version,
        });
    }
    let fingerprint_config = r.watermark_config()?;
    fingerprint_config
        .validate()
        .map_err(|e| r.corrupt(format!("fingerprint config: {e}")))?;
    let total_devices = r.u64("total device count")?;
    if total_devices > u32::MAX as u64 {
        return Err(r.corrupt(format!(
            "total device count {total_devices} exceeds the u32 index id space"
        )));
    }
    let shard_count = r.u32("shard count")? as usize;
    // Each shard entry is at least 36 bytes; bound the allocation by the
    // bytes actually present before trusting `shard_count`.
    r.need(shard_count.saturating_mul(36), "shard entries")?;
    let mut shards = Vec::with_capacity(shard_count);
    let mut next_device = 0u64;
    for i in 0..shard_count {
        let s = read_shard_entry(&mut r, i)?;
        if s.first_device != next_device {
            return Err(r.corrupt(format!(
                "shard {i} covers devices {}..{} but the previous shards end at {next_device} \
                 (ranges must be contiguous, without overlaps or gaps)",
                s.first_device,
                s.first_device + s.device_count
            )));
        }
        if s.device_count == 0 {
            return Err(r.corrupt(format!("shard {i} is empty")));
        }
        next_device += s.device_count;
        shards.push(s);
    }
    if next_device != total_devices {
        return Err(r.corrupt(format!(
            "shards cover {next_device} devices, manifest declares {total_devices}"
        )));
    }
    r.enter(Section::LeakIndex);
    let cell_count = r.u32("index cell count")? as usize;
    // Each cell is at least 20 bytes (layer + flat + two bucket lengths).
    r.need(cell_count.saturating_mul(20), "index cells")?;
    let mut cells = Vec::with_capacity(cell_count);
    let mut prev: Option<(u32, u64)> = None;
    for _ in 0..cell_count {
        let layer = r.u32("index cell layer")?;
        let flat = r.u64("index cell offset")?;
        if let Some(p) = prev {
            if (layer, flat) <= p {
                return Err(r.corrupt(format!(
                    "index cells not strictly sorted: (layer {layer}, flat {flat}) after \
                     (layer {}, flat {})",
                    p.0, p.1
                )));
            }
        }
        prev = Some((layer, flat));
        let neg = read_bucket(&mut r, total_devices, "index −1 bucket")?;
        let pos = read_bucket(&mut r, total_devices, "index +1 bucket")?;
        cells.push(IndexCell {
            layer,
            flat,
            neg,
            pos,
        });
    }
    let pools = if version == MANIFEST_VERSION {
        Some(read_pools(&mut r, bytes, &fingerprint_config, &cells)?)
    } else {
        None
    };
    r.finish(if pools.is_some() {
        "fingerprint pools"
    } else {
        "leak index"
    })?;
    Ok(ShardManifest {
        fingerprint_config,
        total_devices,
        shards,
        index: LeakIndex {
            device_count: total_devices as usize,
            cells,
        },
        pools,
    })
}

/// Reads and checks a version 2 manifest's pools section: checksum
/// (over the fingerprint config and the section), pool sizes, distinct
/// cells, and every index cell inside its layer's pool.
fn read_pools(
    r: &mut Reader,
    bytes: &[u8],
    cfg: &WatermarkConfig,
    index: &[IndexCell],
) -> Result<FingerprintPools, CodecError> {
    r.enter(Section::Pools);
    let start = r.offset();
    let n_layers = r.u32("pool layer count")? as usize;
    r.need(n_layers.saturating_mul(4), "pool layers")?;
    let pool_size = cfg.pool_ratio * cfg.bits_per_layer;
    let mut cells = Vec::with_capacity(n_layers);
    let mut sorted = Vec::with_capacity(n_layers);
    for l in 0..n_layers {
        let count = r.u32("pool cell count")? as usize;
        if count != pool_size {
            return Err(r.corrupt(format!(
                "layer {l} pool holds {count} cells, the fingerprint config needs {pool_size}"
            )));
        }
        r.need(count.saturating_mul(8), "pool cells")?;
        let mut pool = Vec::with_capacity(count);
        for _ in 0..count {
            pool.push(usize::try_from(r.u64("pool cell")?).unwrap_or(usize::MAX));
        }
        let mut order = pool.clone();
        order.sort_unstable();
        if order.windows(2).any(|p| p[0] == p[1]) {
            return Err(r.corrupt(format!("layer {l} pool repeats a cell")));
        }
        cells.push(pool);
        sorted.push(order);
    }
    let binding = r.u64("pool vault binding")?;
    let covered = r.offset();
    let checksum = fxhash_extend(fxhash(&bytes[MANIFEST_CONFIG]), &bytes[start..covered]);
    if r.u64("pool checksum")? != checksum {
        return Err(r.corrupt(
            "pool checksum mismatch (corrupted, or spliced from another fingerprint config)",
        ));
    }
    for c in index {
        let inside = sorted
            .get(c.layer as usize)
            .is_some_and(|pool| pool.binary_search(&(c.flat as usize)).is_ok());
        if !inside {
            return Err(r.corrupt(format!(
                "index cell (layer {}, flat {}) is outside the fingerprint pools",
                c.layer, c.flat
            )));
        }
    }
    Ok(FingerprintPools { cells, binding })
}

/// Byte offsets of every section boundary in an encoded manifest —
/// truncating at (or next to) any of them must yield a clean
/// [`CodecError`], which `tests/shard_registry_codec.rs` exercises
/// exhaustively.
///
/// # Errors
///
/// Propagates decode errors on malformed input.
pub fn manifest_section_boundaries(bytes: &[u8]) -> Result<Vec<usize>, CodecError> {
    let mut r = Reader::new(bytes, Section::Manifest);
    r.magic(MANIFEST_MAGIC)?;
    let mut boundaries = vec![0, 4, 8, 12];
    let version = r.u32("manifest version")?;
    let _ = r.u32("shard registry version")?;
    let _ = r.watermark_config()?;
    boundaries.push(r.offset());
    let _ = r.u64("total device count")?;
    let shard_count = r.u32("shard count")? as usize;
    boundaries.push(r.offset());
    for i in 0..shard_count {
        let _ = read_shard_entry(&mut r, i)?;
        boundaries.push(r.offset());
    }
    let cell_count = r.u32("index cell count")? as usize;
    boundaries.push(r.offset());
    for _ in 0..cell_count {
        let _ = r.u32("index cell layer")?;
        let _ = r.u64("index cell offset")?;
        boundaries.push(r.offset());
        for what in ["index −1 bucket", "index +1 bucket"] {
            let len = r.u32(what)? as usize;
            r.take(len.saturating_mul(4), what)?;
            boundaries.push(r.offset());
        }
    }
    if version == MANIFEST_VERSION {
        let n_layers = r.u32("pool layer count")? as usize;
        boundaries.push(r.offset());
        for _ in 0..n_layers {
            let count = r.u32("pool cell count")? as usize;
            r.take(count.saturating_mul(8), "pool cells")?;
            boundaries.push(r.offset());
        }
        let _ = r.u64("pool vault binding")?;
        boundaries.push(r.offset());
        let _ = r.u64("pool checksum")?;
        boundaries.push(r.offset());
    }
    boundaries.sort_unstable();
    boundaries.dedup();
    Ok(boundaries)
}

/// A provisioned sharded registry, ready to persist: the manifest plus
/// each shard's file name and bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedFleet {
    /// The manifest (encode with [`encode_manifest`]).
    pub manifest: ShardManifest,
    /// `(file name, bytes)` per shard, in device order.
    pub shards: Vec<(String, Bytes)>,
}

/// Provisions `device_ids` into a sharded registry of (at most)
/// `shard_count` shards, streaming each shard's encoded bytes into
/// `sink` as soon as it is built — per-shard memory, not per-fleet.
/// Device material is derived in parallel on `jobs` worker threads
/// through the provisioner's family cache, so entries and the leak
/// index are bit-identical to serially provisioning the same ids.
///
/// Shards hold `ceil(n / shard_count)` consecutive devices each; with
/// fewer devices than shards the tail shards are simply not created
/// (shards are never empty).
///
/// # Errors
///
/// [`StoreError::Watermark`] on an invalid shard count (zero) or a
/// fleet too large for the u32 index id space; [`StoreError::Io`] when
/// `sink` fails.
pub fn provision_sharded_into<S, F>(
    provisioner: &FleetProvisioner,
    device_ids: &[S],
    shard_count: usize,
    jobs: Option<usize>,
    mut sink: F,
) -> Result<ShardManifest, StoreError>
where
    S: AsRef<str> + Sync,
    F: FnMut(&str, &[u8]) -> std::io::Result<()>,
{
    if shard_count == 0 {
        return Err(StoreError::Watermark(WatermarkError::InvalidConfig(
            "shard count must be at least 1".into(),
        )));
    }
    if device_ids.len() > u32::MAX as usize {
        return Err(StoreError::Watermark(WatermarkError::InvalidConfig(
            format!("{} devices exceed the u32 index id space", device_ids.len()),
        )));
    }
    let cfg = provisioner.fingerprint_config();
    let cache = provisioner.family_cache();
    let n_layers = cache.pools.len();
    let per_shard = device_ids.len().div_ceil(shard_count).max(1);
    // One shard at a time: derive the chunk's material, fold it into
    // the incremental index, encode and sink the shard, drop the chunk.
    // Peak memory is one shard's material plus the growing index — the
    // whole fleet's fingerprint material is never resident.
    let mut builder = LeakIndexBuilder::new(n_layers);
    let mut shards = Vec::new();
    let mut first = 0u64;
    for (i, chunk_ids) in device_ids.chunks(per_shard).enumerate() {
        let stamp_span = telemetry::Span::enter(&telemetry::SHARD_STAMP_NS);
        let chunk = par_map(chunk_ids, jobs, |id| cache.device_material(id.as_ref()));
        drop(stamp_span);
        let index_span = telemetry::Span::enter(&telemetry::SHARD_INDEX_NS);
        let mut fingerprints = Vec::with_capacity(chunk.len());
        for (fp, sig, locs) in chunk {
            builder.push(&sig, &locs);
            fingerprints.push(fp);
        }
        let bytes = encode_registry(cfg, &fingerprints);
        drop(index_span);
        if Telemetry::enabled() {
            telemetry::PROVISION_SHARDS.incr();
        }
        let name = shard_file_name(i);
        sink(&name, &bytes).map_err(|e| StoreError::Io {
            what: "shard write",
            source: e,
        })?;
        shards.push(ShardEntry {
            name,
            first_device: first,
            device_count: fingerprints.len() as u64,
            byte_len: bytes.len() as u64,
            checksum: fxhash(&bytes),
        });
        first += fingerprints.len() as u64;
    }
    Ok(ShardManifest {
        fingerprint_config: *cfg,
        total_devices: device_ids.len() as u64,
        shards,
        index: builder.finish(),
        pools: Some(FingerprintPools::of(cache)),
    })
}

/// In-memory variant of [`provision_sharded_into`]: returns the
/// manifest together with every shard's bytes.
///
/// # Errors
///
/// Same as [`provision_sharded_into`] (minus I/O).
pub fn provision_sharded<S: AsRef<str> + Sync>(
    provisioner: &FleetProvisioner,
    device_ids: &[S],
    shard_count: usize,
    jobs: Option<usize>,
) -> Result<ShardedFleet, WatermarkError> {
    let mut shards: Vec<(String, Bytes)> = Vec::new();
    let manifest = provision_sharded_into(provisioner, device_ids, shard_count, jobs, |name, b| {
        shards.push((name.to_string(), Bytes::copy_from_slice(b)));
        Ok(())
    })
    .map_err(StoreError::into_watermark)?;
    Ok(ShardedFleet { manifest, shards })
}

/// A loaded sharded registry: every device entry (in global
/// registration order) plus the persisted leak index.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedRegistry {
    fingerprint_config: WatermarkConfig,
    devices: Vec<DeviceFingerprint>,
    index: LeakIndex,
    pools: Option<FingerprintPools>,
}

impl ShardedRegistry {
    /// The fingerprint parameters the fleet was provisioned with.
    pub fn fingerprint_config(&self) -> &WatermarkConfig {
        &self.fingerprint_config
    }

    /// Every device entry, in global registration order.
    pub fn devices(&self) -> &[DeviceFingerprint] {
        &self.devices
    }

    /// The persisted fingerprint-cell inverted index.
    pub fn index(&self) -> &LeakIndex {
        &self.index
    }

    /// Decomposes into `(fingerprint config, devices, leak index,
    /// pools)` — the raw parts a caller feeds to
    /// [`FleetVerifier::for_family`] and [`FleetVerifier::with_index`]
    /// when it builds the family cache itself, exactly once.
    pub fn into_parts(
        self,
    ) -> (
        WatermarkConfig,
        Vec<DeviceFingerprint>,
        LeakIndex,
        Option<FingerprintPools>,
    ) {
        (
            self.fingerprint_config,
            self.devices,
            self.index,
            self.pools,
        )
    }

    /// Builds the verification engine over this registry with the
    /// owner's secrets ([`Family::new`]), the persisted leak index
    /// attached. The family cache takes the manifest's pools when it
    /// carries them (checked against the family's binding) and scores
    /// them over the family's base artifact otherwise
    /// ([`FleetVerifier::for_family`]).
    ///
    /// # Errors
    ///
    /// Rejects an inconsistent secret bundle and propagates
    /// location-reproduction errors (see [`FleetVerifier::from_parts`]),
    /// pools derived from another vault, and an index over another
    /// device population.
    pub fn into_verifier(self, base: OwnerSecrets) -> Result<FleetVerifier, WatermarkError> {
        let family = Family::new(base)?;
        let pools = self.pools.as_ref();
        let verifier =
            FleetVerifier::for_family(family, self.fingerprint_config, self.devices, pools)
                .map_err(StoreError::into_watermark)?;
        verifier.with_index(self.index)
    }
}

/// Loads a sharded registry: decodes the manifest, then pulls each
/// shard's bytes through `read_shard` (keyed by the manifest's shard
/// file name) and validates length, checksum, version, config, and
/// device count against the manifest before splicing the entries into
/// one global device list.
///
/// # Errors
///
/// [`StoreError::Io`] when `read_shard` fails;
/// [`StoreError::Codec`] for a malformed manifest, a shard whose bytes
/// do not match the manifest (length, checksum), a shard of a foreign
/// registry version ([`CodecError::MixedVersion`]), or a shard whose
/// config or device count disagrees with the manifest.
pub fn load_sharded_registry<F>(
    manifest_bytes: &[u8],
    read_shard: F,
) -> Result<ShardedRegistry, StoreError>
where
    F: FnMut(&str) -> std::io::Result<Vec<u8>>,
{
    decode_manifest(manifest_bytes)?.load_shards(read_shard)
}

/// Decodes shard `i`'s bytes against its manifest entry.
fn decode_shard(
    bytes: &[u8],
    manifest: &ShardManifest,
    i: usize,
) -> Result<Vec<DeviceFingerprint>, CodecError> {
    let entry = &manifest.shards[i];
    let mut r = Reader::new(bytes, Section::Shard(i));
    if bytes.len() as u64 != entry.byte_len {
        return Err(r.corrupt(format!(
            "shard file is {} bytes, manifest records {}",
            bytes.len(),
            entry.byte_len
        )));
    }
    if fxhash(bytes) != entry.checksum {
        return Err(r.corrupt("shard checksum mismatch (file corrupted or replaced)"));
    }
    r.magic(REGISTRY_MAGIC)?;
    let version = r.u32("shard registry version")?;
    if version != REGISTRY_VERSION {
        // A v-next shard under a v1 manifest (or vice versa) is a
        // mixed-version layout, not mere corruption.
        return Err(CodecError::MixedVersion {
            outer: manifest.version(),
            inner: version,
        });
    }
    let config = r.watermark_config()?;
    config
        .validate()
        .map_err(|e| r.corrupt(format!("fingerprint config: {e}")))?;
    if config != manifest.fingerprint_config {
        return Err(r.corrupt("shard fingerprint config differs from the manifest's".to_string()));
    }
    let count = r.u32("device count")? as u64;
    if count != entry.device_count {
        return Err(r.corrupt(format!(
            "shard holds {count} devices, manifest records {}",
            entry.device_count
        )));
    }
    r.need((count as usize).saturating_mul(20), "device entries")?;
    let mut devices = Vec::with_capacity(count as usize);
    for j in 0..count as usize {
        // Blame the *global* device index — triage on a million-device
        // fleet should name the device, not its shard-relative slot.
        devices.push(read_device_entry(&mut r, entry.first_device as usize + j)?);
    }
    Ok(devices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provision::FleetProvisioner;
    use crate::watermark::OwnerSecrets;
    use emmark_nanolm::config::ModelConfig;
    use emmark_nanolm::TransformerModel;
    use emmark_quant::awq::{awq, AwqConfig};

    fn provisioner() -> FleetProvisioner {
        let mut model = TransformerModel::new(ModelConfig::tiny_test());
        let calib: Vec<Vec<u32>> = (0..4u32)
            .map(|s| (0..16u32).map(|i| (i * 5 + s) % 29).collect())
            .collect();
        let stats = model.collect_activation_stats(&calib);
        let qm = awq(&model, &stats, &AwqConfig::default());
        let base_cfg = WatermarkConfig {
            bits_per_layer: 4,
            pool_ratio: 10,
            ..Default::default()
        };
        let base = OwnerSecrets::new(qm, stats, base_cfg, 0x5A4D);
        let fp_cfg = WatermarkConfig {
            bits_per_layer: 3,
            pool_ratio: 10,
            selection_seed: 0x1DE11,
            ..Default::default()
        };
        FleetProvisioner::new(base, fp_cfg).expect("provisioner")
    }

    #[test]
    fn sharded_manifest_round_trips() {
        let p = provisioner();
        let ids: Vec<String> = (0..10).map(|i| format!("dev-{i:03}")).collect();
        let fleet = provision_sharded(&p, &ids, 3, Some(2)).expect("provision");
        assert_eq!(fleet.shards.len(), 3);
        let bytes = encode_manifest(&fleet.manifest);
        let decoded = decode_manifest(&bytes).expect("decode");
        assert_eq!(decoded, fleet.manifest);
    }

    #[test]
    fn loaded_registry_matches_provisioned_devices() {
        let p = provisioner();
        let ids: Vec<String> = (0..10).map(|i| format!("dev-{i:03}")).collect();
        let fleet = provision_sharded(&p, &ids, 4, None).expect("provision");
        let manifest_bytes = encode_manifest(&fleet.manifest);
        let loaded = load_sharded_registry(&manifest_bytes, |name| {
            fleet
                .shards
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, b)| b.to_vec())
                .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, name.to_string()))
        })
        .expect("load");
        let direct: Vec<String> = loaded
            .devices()
            .iter()
            .map(|d| d.device_id.clone())
            .collect();
        assert_eq!(direct, ids);
        assert_eq!(loaded.index(), &fleet.manifest.index);
    }
}
