//! Per-device fingerprinting on top of EmMark — a DeepMarks-style
//! extension the paper's IP-protection scenario implies but does not
//! evaluate: a proprietor shipping the *same* model to many end-users
//! wants to know **which** device leaked, not merely that a leak is
//! theirs.
//!
//! Each device receives the same base watermark (ownership) plus a
//! device-specific signature at device-specific locations (traitor
//! tracing). Identification extracts every candidate fingerprint from
//! the leaked weights and returns the one with an overwhelming Eq. 8
//! margin.

use crate::deploy::SparseArtifact;
use crate::scoring::layer_pool;
use crate::signature::Signature;
use crate::store::{materialize, LayerStore, StoreError};
use crate::vault::{encode_secrets, open_family_bytes};
use crate::watermark::{
    apply_bits_at, check_signature_len, extract_with_locations, locate_in_store, locate_layer,
    locate_watermark, ExtractionReport, GridSource, Locations, OwnerSecrets, ProofCutoff,
    WatermarkConfig, WatermarkError,
};
use bytes::Bytes;
use emmark_nanolm::model::ActivationStats;
use emmark_quant::QuantizedModel;
use emmark_tensor::rng::{SplitMix64, Xoshiro256};
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::sync::Arc;

/// A registered device fingerprint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceFingerprint {
    /// Stable device identifier.
    pub device_id: String,
    /// The device's selection seed (distinct per device).
    pub selection_seed: u64,
    /// The device's signature seed.
    pub signature_seed: u64,
}

/// A fleet of fingerprinted deployments sharing one base watermark.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// The proprietor's base secrets (ownership watermark).
    pub base: OwnerSecrets,
    /// Fingerprint parameters (fewer bits than the base watermark — the
    /// tracing signal rides on top of the ownership signal).
    pub fingerprint_config: WatermarkConfig,
    devices: Vec<DeviceFingerprint>,
}

impl Fleet {
    /// Creates a fleet around existing owner secrets.
    pub fn new(base: OwnerSecrets, fingerprint_config: WatermarkConfig) -> Self {
        Self::with_devices(base, fingerprint_config, Vec::new())
    }

    /// Creates a fleet with `devices` already registered — e.g. to
    /// continue a registry a [`crate::provision::FleetProvisioner`]
    /// batch produced.
    pub fn with_devices(
        base: OwnerSecrets,
        fingerprint_config: WatermarkConfig,
        devices: Vec<DeviceFingerprint>,
    ) -> Self {
        Self {
            base,
            fingerprint_config,
            devices,
        }
    }

    /// Registered devices.
    pub fn devices(&self) -> &[DeviceFingerprint] {
        &self.devices
    }

    /// Fingerprint locations for a given device seed: EmMark scoring on
    /// the base-watermarked model, with the base watermark's own cells
    /// excluded so the fingerprint can never corrupt the ownership
    /// signal. Used identically by provisioning and extraction.
    fn fingerprint_locations(
        &self,
        base_deployed: &QuantizedModel,
        selection_seed: u64,
    ) -> Result<Locations, WatermarkError> {
        let base_locs = locate_watermark(&self.base.original, &self.base.stats, &self.base.config)?;
        let (pools, _) = fingerprint_pools(
            base_deployed,
            &self.base.stats,
            &base_locs,
            &self.fingerprint_config,
        )
        .map_err(StoreError::into_watermark)?;
        Ok(sample_from_pools(
            &pools,
            &self.fingerprint_config,
            selection_seed,
        ))
    }

    /// Registers a device and produces its fingerprinted deployment:
    /// base watermark first, then the device signature at
    /// device-specific, base-disjoint locations.
    ///
    /// # Errors
    ///
    /// Propagates insertion errors.
    pub fn provision(&mut self, device_id: &str) -> Result<QuantizedModel, WatermarkError> {
        // Derive per-device seeds from the id, deterministically.
        let fp = derive_device(&self.fingerprint_config, device_id);
        let mut deployed = self.base.watermark_for_deployment()?;
        let n = deployed.layer_count();
        let sig = Signature::generate(self.fingerprint_config.signature_len(n), fp.signature_seed);
        let locations = self.fingerprint_locations(&deployed, fp.selection_seed)?;
        apply_bits_at(&mut deployed, &locations, &sig);
        self.devices.push(fp);
        Ok(deployed)
    }

    /// Extraction report of one device's fingerprint against a leaked
    /// model (any [`GridSource`]).
    ///
    /// # Errors
    ///
    /// Propagates extraction errors.
    pub fn device_report<S: GridSource + ?Sized>(
        &self,
        device: &DeviceFingerprint,
        leaked: &S,
    ) -> Result<ExtractionReport, WatermarkError> {
        let n = self.base.original.layer_count();
        let sig = Signature::generate(
            self.fingerprint_config.signature_len(n),
            device.signature_seed,
        );
        // The fingerprint diff is taken against the *base-watermarked*
        // model (the state every device shares before fingerprinting).
        let base_deployed = self.base.watermark_for_deployment()?;
        let locations = self.fingerprint_locations(&base_deployed, device.selection_seed)?;
        extract_with_locations(leaked, &base_deployed, &locations, &sig)
    }

    /// Identifies the leaking device: the registered fingerprint whose
    /// chance-match probability clears `log10_threshold` with the best
    /// margin. Returns `None` when no fingerprint is convincing.
    ///
    /// # Errors
    ///
    /// Propagates extraction errors.
    pub fn identify_leak<S: GridSource + ?Sized>(
        &self,
        leaked: &S,
        log10_threshold: f64,
    ) -> Result<Option<(&DeviceFingerprint, ExtractionReport)>, WatermarkError> {
        let mut best: Option<(&DeviceFingerprint, ExtractionReport)> = None;
        let mut cutoff = ProofCutoff::new(log10_threshold);
        for device in &self.devices {
            let report = self.device_report(device, leaked)?;
            keep_best(&mut best, &mut cutoff, device, report);
        }
        Ok(best)
    }
}

/// One step of a leak scan: `report` becomes the attribution when it
/// clears `cutoff` with a strictly smaller chance-match probability than
/// the best so far, so ties keep the first-registered device.
pub(crate) fn keep_best<'a>(
    best: &mut Option<(&'a DeviceFingerprint, ExtractionReport)>,
    cutoff: &mut ProofCutoff,
    device: &'a DeviceFingerprint,
    report: ExtractionReport,
) {
    if cutoff.clears(&report)
        && best
            .as_ref()
            .is_none_or(|(_, b)| report.log10_p_chance() < b.log10_p_chance())
    {
        *best = Some((device, report));
    }
}

/// The device-*independent* half of fingerprint location reproduction:
/// per-layer candidate pools over the base-watermarked model, with the
/// base watermark's own cells score-excluded, and the model's value at
/// every pool cell. The pools depend only on the model family (base
/// weights, activation profile, coefficients), so a batch verifier
/// ([`crate::fleet`]) computes them once and reuses them for every
/// device instead of re-scoring per verification.
///
/// One pass, one layer at a time: a store over an artifact decodes (and
/// value-checks) each record once, and holds one layer.
///
/// # Errors
///
/// Returns [`WatermarkError::Pool`] if a layer cannot fill its pool, and
/// the store's read and decode failures.
pub(crate) fn fingerprint_pools<S: LayerStore + ?Sized>(
    base_deployed: &S,
    stats: &ActivationStats,
    base_locs: &Locations,
    cfg: &WatermarkConfig,
) -> Result<(Vec<Vec<usize>>, CellTable), StoreError> {
    let coeffs = cfg.coefficients();
    let pool_size = cfg.pool_ratio * cfg.bits_per_layer;
    // L covers every layer of the model it was located on (or, for a
    // key, was checked to).
    let mut pools = Vec::with_capacity(base_locs.len());
    let mut values = Vec::with_capacity(base_locs.len());
    // Base locations arrive in sampled-pick order; the scoring kernel
    // wants them ascending. One scratch buffer serves every layer.
    let mut excluded: Vec<usize> = Vec::new();
    for (l, base_cells) in base_locs.iter().enumerate() {
        let layer = base_deployed.load_layer(l)?;
        excluded.clear();
        excluded.extend_from_slice(base_cells);
        excluded.sort_unstable();
        let act_mean = &stats.per_layer[l].mean_abs;
        let pool = layer_pool(&layer, act_mean, &coeffs, pool_size, &excluded)
            .map_err(|source| WatermarkError::Pool { layer: l, source })?;
        values.push(CellTable::row(&pool, |_, f| layer.q_at_flat(f)));
        pools.push(pool);
    }
    Ok((pools, CellTable(values)))
}

/// Values at a sparse set of grid cells: per layer, `(flat, value)`
/// pairs sorted by flat index. Holds what verification reads of a model
/// without holding the model — the ownership bits at L, the vault's W at
/// its key cells, the base-watermarked model at the fingerprint pools.
#[derive(Debug)]
pub(crate) struct CellTable(Vec<Vec<(usize, i8)>>);

impl CellTable {
    /// `value(l, i, f)` at the `i`-th cell `f` of each layer `l` of
    /// `cells`. Cells must be distinct within a layer.
    pub(crate) fn collect(
        cells: &[Vec<usize>],
        mut value: impl FnMut(usize, usize, usize) -> i8,
    ) -> Self {
        let layers = cells
            .iter()
            .enumerate()
            .map(|(l, layer)| Self::row(layer, |i, f| value(l, i, f)))
            .collect();
        Self(layers)
    }

    /// One layer's row: `value(i, f)` at the `i`-th cell `f`.
    fn row(cells: &[usize], mut value: impl FnMut(usize, usize) -> i8) -> Vec<(usize, i8)> {
        let mut row: Vec<(usize, i8)> = (cells.iter().enumerate())
            .map(|(i, &f)| (f, value(i, f)))
            .collect();
        row.sort_unstable_by_key(|&(f, _)| f);
        row
    }

    /// The value at `(l, f)`, if the table holds that cell.
    pub(crate) fn get(&self, l: usize, f: usize) -> Option<i8> {
        let row = self.0.get(l)?;
        row.binary_search_by_key(&f, |&(g, _)| g)
            .ok()
            .map(|i| row[i].1)
    }
}

/// One owner's model family, located once: the signature and insertion
/// parameters, the activation profile A_f, the ownership locations L
/// (Eqs. 2–4, a pure function of the secrets — DESIGN.md §5,
/// invariant 2), and the pristine weights W. Every engine over the
/// family shares one `Arc` of it.
///
/// Every family is a vault opened by one parse, from a file
/// ([`Self::open`]) or from bytes in memory (the daemon's open, and
/// [`Self::new`], which opens the vault [`encode_secrets`] writes). W is
/// read through one [`SparseArtifact`] over the vault's embedded
/// artifact, plus the table of W at the key cells. L and its binding
/// are read from the vault's key, or, for a keyless vault, derived at
/// open by locating over that artifact one record at a time. Extraction
/// code cannot tell the two apart: it reads W and the base-watermarked
/// model through [`GridSource`], and they give bit-identical reports
/// (DESIGN.md §5, invariant 13).
#[derive(Debug)]
pub struct Family {
    config: WatermarkConfig,
    signature: Signature,
    stats: ActivationStats,
    locations: Locations,
    /// The ownership bit at every located cell: overlaid on W, it reads
    /// as the base-watermarked model every device starts from.
    bits: CellTable,
    /// W behind positioned reads or in memory. Nothing of it but the key
    /// cells is read unless L has to be derived, pools scored or devices
    /// stamped.
    artifact: SparseArtifact<'static>,
    /// W at every key cell, read once at open.
    at_key: CellTable,
    /// The binding the vault key and manifest pools carry
    /// ([`crate::vault`]).
    binding: u64,
    /// Whether L came from a vault key rather than a recomputation.
    keyed: bool,
}

impl Family {
    /// The family of decoded secrets: the vault [`encode_secrets`]
    /// writes for them, opened from memory, its key counted as derived.
    /// A mis-sized signature is [`WatermarkError::SignatureLength`].
    ///
    /// # Errors
    ///
    /// Rejects an inconsistent bundle and propagates location errors.
    pub fn new(secrets: OwnerSecrets) -> Result<Self, WatermarkError> {
        let vault = encode_secrets(&secrets);
        drop(secrets);
        let family = open_family_bytes(vault.to_vec()).map_err(StoreError::into_watermark)?;
        Ok(family.keyed_by_vault(false))
    }

    /// Opens an owner vault for verification: header, signature and
    /// key, with the embedded artifact behind positioned reads — no
    /// decode. A keyed vault costs no Eqs. 2–4; a keyless one derives its
    /// key by locating over the artifact, one record at a time.
    ///
    /// # Errors
    ///
    /// I/O failures, the codec errors of [`crate::vault::decode_secrets`]
    /// (a key that fails its checksum or binding included), and the
    /// location errors of a keyless vault.
    pub fn open(file: File) -> Result<Self, StoreError> {
        crate::vault::open_family(file)
    }

    /// A family over a key: L, its binding, and W's artifact with W at
    /// the key cells. A vault reader has checked the key's checksum,
    /// shape, and binding against the vault, or derived the key.
    pub(crate) fn keyed(
        config: WatermarkConfig,
        signature: Signature,
        stats: ActivationStats,
        locations: Locations,
        binding: u64,
        artifact: SparseArtifact<'static>,
        at_key: CellTable,
    ) -> Result<Self, WatermarkError> {
        // What `locate_watermark` would have refused, the key may not
        // smuggle in. Corrupt or hand-edited secrets surface as errors
        // here, once, not as panics inside batch workers or on every
        // warm request.
        config.validate()?;
        check_signature_len(&config, &signature, artifact.layer_count())?;
        let n = locations.len();
        let bits = CellTable::collect(&locations, |l, i, _| signature.layer_bits(l, n)[i]);
        Ok(Self {
            config,
            signature,
            stats,
            locations,
            bits,
            artifact,
            at_key,
            binding,
            keyed: true,
        })
    }

    /// The same family, its key marked as read from a vault (`true`) or
    /// derived at open.
    pub(crate) fn keyed_by_vault(self, keyed: bool) -> Self {
        Self { keyed, ..self }
    }

    /// Whether L came from a vault key rather than a recomputation.
    pub fn is_keyed(&self) -> bool {
        self.keyed
    }

    /// Length of the signature B.
    pub(crate) fn signature_bits(&self) -> usize {
        self.signature.len()
    }

    /// L recomputed over W's artifact, one record at a time — the
    /// arbiter's check of a key ([`crate::vault::audit_key`]).
    ///
    /// # Errors
    ///
    /// Read and decode failures of the artifact, and location errors.
    pub(crate) fn relocate(&self) -> Result<Locations, StoreError> {
        locate_in_store(
            &self.artifact,
            &self.stats,
            &self.config,
            None,
            locate_layer,
            false,
        )
    }

    /// The ownership locations L.
    pub fn locations(&self) -> &Locations {
        &self.locations
    }

    /// The binding the vault key and manifest pools must carry
    /// ([`crate::vault`]): read from a keyed vault, hashed at open for a
    /// keyless one.
    pub(crate) fn binding(&self) -> u64 {
        self.binding
    }

    /// The first I/O error a read of W hit since open
    /// ([`SparseArtifact::check_reads`]); always `Ok` when W is in
    /// memory. A verdict over this family is valid only when it is `Ok`.
    ///
    /// # Errors
    ///
    /// The latched read error.
    pub fn check_reads(&self) -> Result<(), StoreError> {
        self.artifact.check_reads()
    }

    /// The decoded secrets: W decoded from the family's artifact.
    ///
    /// # Errors
    ///
    /// Read and decode failures of the artifact.
    pub(crate) fn decoded_secrets(&self) -> Result<OwnerSecrets, StoreError> {
        Ok(OwnerSecrets {
            original: materialize(&self.artifact)?,
            stats: self.stats.clone(),
            signature: self.signature.clone(),
            config: self.config,
        })
    }

    /// The base-watermarked model's v2 artifact: W's artifact read once,
    /// checked to still hold W at the key cells (the table read at open,
    /// which the binding covers), and patched with the ownership bit at
    /// every located cell. Nothing is decoded or re-encoded, and the
    /// bytes equal the encoding of the base-watermarked model
    /// ([`OwnerSecrets::watermark_for_deployment`]).
    ///
    /// # Errors
    ///
    /// Read failures of a vault's artifact, and a vault whose W at a key
    /// cell changed since open.
    pub(crate) fn base_artifact(&self) -> Result<Bytes, StoreError> {
        let mut bytes = self.artifact.read_all()?;
        let index = self.artifact.layer_index();
        let n = self.locations.len();
        for (l, cells) in self.locations.iter().enumerate() {
            for (&f, &b) in cells.iter().zip(self.signature.layer_bits(l, n)) {
                // Open placed every key cell inside its grid, and refused
                // one at a min/max level: W + b is in range.
                let at = index[l].q_offset + f;
                let w = bytes[at] as i8;
                if Some(w) != self.at_key.get(l, f) {
                    return Err(StoreError::Io {
                        what: "re-reading the vault model",
                        source: std::io::Error::other(format!(
                            "W at key cell (layer {l}, flat {f}) changed since the vault was opened"
                        )),
                    });
                }
                bytes[at] = (w + b) as u8;
            }
        }
        Ok(Bytes::from(bytes))
    }

    /// The base-watermarked model's value at `(l, f)`: W plus the
    /// ownership bit when `(l, f)` is located.
    pub(crate) fn base_q(&self, l: usize, f: usize) -> i8 {
        self.q_at(l, f) + self.bits.get(l, f).unwrap_or(0)
    }

    /// Ownership extraction (Eqs. 6–8) against the located cells —
    /// bit-for-bit [`OwnerSecrets::verify`]; see
    /// [`crate::fleet::FleetVerifier::ownership_report`].
    ///
    /// # Errors
    ///
    /// Returns [`WatermarkError::ShapeMismatch`] on a foreign layer grid.
    pub fn ownership_report<S: GridSource + ?Sized>(
        &self,
        suspect: &S,
    ) -> Result<ExtractionReport, WatermarkError> {
        let _span = crate::telemetry::Span::enter(&crate::telemetry::FLEET_VERIFY_NS);
        if crate::telemetry::Telemetry::enabled() {
            crate::telemetry::FLEET_REPORTS.incr();
        }
        extract_with_locations(suspect, self, &self.locations, &self.signature)
    }
}

/// W: the key-cell table, falling back to the artifact.
impl GridSource for Family {
    fn source_layer_count(&self) -> usize {
        self.artifact.source_layer_count()
    }

    fn layer_dims(&self, l: usize) -> (usize, usize) {
        self.artifact.layer_dims(l)
    }

    fn q_at(&self, l: usize, f: usize) -> i8 {
        (self.at_key.get(l, f)).unwrap_or_else(|| self.artifact.q_cell(l, f))
    }
}

/// A [`Family`] extended for one fingerprint config: the per-layer
/// fingerprint candidate pools (base-excluded) and the base-watermarked
/// model at every pool cell — O(pool), never a model copy. The cache is
/// itself the [`GridSource`] fingerprint diffs are taken against.
///
/// Both halves of the fleet pipeline —
/// [`crate::provision::FleetProvisioner`] (score-once/insert-many) and
/// [`crate::fleet::FleetVerifier`] (score-once/verify-many) — hold an
/// `Arc` of it and are thin device loops over it, which is what makes
/// their outputs bit-identical to the serial [`Fleet`] path by
/// construction.
#[derive(Debug)]
pub(crate) struct FamilyCache {
    pub(crate) family: Arc<Family>,
    pub(crate) fingerprint_config: WatermarkConfig,
    /// Per-layer fingerprint candidate pools, base-excluded.
    pub(crate) pools: Vec<Vec<usize>>,
    /// The base-watermarked model at every pool cell.
    base: CellTable,
}

impl FamilyCache {
    /// Scores the pools over `base_deployed` — a store over the family's
    /// base-watermarked model ([`Family::base_artifact`]) — in one pass
    /// that also reads the model at every pool cell.
    ///
    /// # Errors
    ///
    /// Rejects an invalid config and propagates [`fingerprint_pools`]'s
    /// errors.
    pub(crate) fn scored<S: LayerStore + ?Sized>(
        family: Arc<Family>,
        fingerprint_config: WatermarkConfig,
        base_deployed: &S,
    ) -> Result<Self, StoreError> {
        fingerprint_config.validate()?;
        let (pools, base) = fingerprint_pools(
            base_deployed,
            &family.stats,
            &family.locations,
            &fingerprint_config,
        )?;
        Ok(Self::assemble(family, fingerprint_config, pools, base))
    }

    /// Takes the pools a manifest persisted instead of scoring: checks
    /// they were derived from this family and fit its grid, then reads
    /// the base-watermarked model at every pool cell (positioned reads
    /// for a keyed vault).
    ///
    /// # Errors
    ///
    /// [`WatermarkError::InvalidConfig`] for pools bound to another
    /// vault, of the wrong shape, or overlapping the ownership cells;
    /// read failures of the vault's artifact.
    pub(crate) fn with_pools(
        family: Arc<Family>,
        fingerprint_config: WatermarkConfig,
        pools: &crate::registry::FingerprintPools,
    ) -> Result<Self, StoreError> {
        fingerprint_config.validate()?;
        let invalid = |msg: String| StoreError::Watermark(WatermarkError::InvalidConfig(msg));
        if pools.binding() != family.binding() {
            return Err(invalid(
                "fingerprint pools were derived from another vault (binding mismatch)".into(),
            ));
        }
        let cells = pools.cells();
        let pool_size = fingerprint_config.pool_ratio * fingerprint_config.bits_per_layer;
        if cells.len() != family.source_layer_count() {
            return Err(invalid(format!(
                "fingerprint pools cover {} layers, the family has {}",
                cells.len(),
                family.source_layer_count()
            )));
        }
        for (l, pool) in cells.iter().enumerate() {
            let (in_f, out_f) = family.layer_dims(l);
            if pool.len() != pool_size {
                return Err(invalid(format!(
                    "layer {l}: {} pool cells, the fingerprint config needs {pool_size}",
                    pool.len()
                )));
            }
            if let Some(&f) = pool
                .iter()
                .find(|&&f| f >= in_f * out_f || family.bits.get(l, f).is_some())
            {
                return Err(invalid(format!(
                    "layer {l}: pool cell {f} is outside the grid or an ownership cell"
                )));
            }
        }
        let base = CellTable::collect(cells, |l, _, f| family.base_q(l, f));
        family.check_reads()?;
        Ok(Self::assemble(
            family,
            fingerprint_config,
            cells.to_vec(),
            base,
        ))
    }

    fn assemble(
        family: Arc<Family>,
        fingerprint_config: WatermarkConfig,
        pools: Vec<Vec<usize>>,
        base: CellTable,
    ) -> Self {
        if crate::telemetry::Telemetry::enabled() {
            crate::telemetry::FLEET_CACHE_MISSES.incr();
        }
        Self {
            family,
            fingerprint_config,
            pools,
            base,
        }
    }

    /// Derives one device's fingerprint material from the shared pools:
    /// its registry entry, signature, and sampled locations — pure PRNG
    /// work, no scoring.
    pub(crate) fn device_material(
        &self,
        device_id: &str,
    ) -> (DeviceFingerprint, Signature, Locations) {
        let fp = derive_device(&self.fingerprint_config, device_id);
        let (sig, locs) = self.fingerprint_material(&fp);
        (fp, sig, locs)
    }

    /// The signature and sampled locations of an already-registered
    /// fingerprint — a pure function of its seeds and the shared pools.
    pub(crate) fn fingerprint_material(&self, fp: &DeviceFingerprint) -> (Signature, Locations) {
        let cfg = &self.fingerprint_config;
        let n = self.pools.len();
        let sig = Signature::generate(cfg.signature_len(n), fp.signature_seed);
        let locs = sample_from_pools(&self.pools, cfg, fp.selection_seed);
        (sig, locs)
    }
}

/// The base-watermarked model: the pool table, falling back to the
/// family (W plus the ownership overlay) for any other cell.
impl GridSource for FamilyCache {
    fn source_layer_count(&self) -> usize {
        self.family.source_layer_count()
    }

    fn layer_dims(&self, l: usize) -> (usize, usize) {
        self.family.layer_dims(l)
    }

    fn q_at(&self, l: usize, f: usize) -> i8 {
        self.base
            .get(l, f)
            .unwrap_or_else(|| self.family.base_q(l, f))
    }
}

/// The device-*dependent* half: draws `bits_per_layer` cells per layer
/// from the shared pools under the device's selection seed. Cheap (pure
/// PRNG sampling) compared to [`fingerprint_pools`].
pub(crate) fn sample_from_pools(
    pools: &[Vec<usize>],
    cfg: &WatermarkConfig,
    selection_seed: u64,
) -> Locations {
    let mut sm = SplitMix64::new(selection_seed);
    let mut locations = Vec::with_capacity(pools.len());
    for pool in pools {
        let layer_seed = sm.next_u64();
        let mut rng = Xoshiro256::seed_from_u64(layer_seed);
        let picks = rng.sample_without_replacement(pool.len(), cfg.bits_per_layer);
        locations.push(picks.into_iter().map(|p| pool[p]).collect::<Vec<_>>());
    }
    locations
}

/// Derives the deterministic per-device fingerprint material for a
/// device id, shared by [`Fleet::provision`] and registry tooling.
pub(crate) fn derive_device(
    fingerprint_config: &WatermarkConfig,
    device_id: &str,
) -> DeviceFingerprint {
    let h = fxhash(device_id.as_bytes());
    DeviceFingerprint {
        device_id: device_id.to_string(),
        selection_seed: fingerprint_config.selection_seed ^ h,
        signature_seed: h.rotate_left(17),
    }
}

/// Tiny stable FNV-style hash (not cryptographic; device-id seeds and
/// the [`crate::registry`] shard checksums).
pub(crate) fn fxhash(bytes: &[u8]) -> u64 {
    fxhash_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an [`fxhash`] over more bytes: `fxhash_extend(fxhash(a), b)`
/// equals `fxhash(a ++ b)`.
pub(crate) fn fxhash_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use emmark_nanolm::config::ModelConfig;
    use emmark_nanolm::TransformerModel;
    use emmark_quant::awq::{awq, AwqConfig};

    fn fleet() -> Fleet {
        let mut model = TransformerModel::new(ModelConfig::tiny_test());
        let calib: Vec<Vec<u32>> = (0..4u32)
            .map(|s| (0..16u32).map(|i| (i * 7 + s) % 31).collect())
            .collect();
        let stats = model.collect_activation_stats(&calib);
        let qm = awq(&model, &stats, &AwqConfig::default());
        let base_cfg = WatermarkConfig {
            bits_per_layer: 4,
            pool_ratio: 10,
            ..Default::default()
        };
        let base = OwnerSecrets::new(qm, stats, base_cfg, 0xF1EE7);
        let fp_cfg = WatermarkConfig {
            bits_per_layer: 3,
            pool_ratio: 10,
            selection_seed: 0xDE11CE,
            ..Default::default()
        };
        Fleet::new(base, fp_cfg)
    }

    #[test]
    fn provisioned_devices_share_ownership_but_differ_pairwise() {
        let mut fleet = fleet();
        let a = fleet.provision("device-a").expect("provision a");
        let b = fleet.provision("device-b").expect("provision b");
        assert!(!a.same_weights(&b), "fingerprints must differ");
        // Both carry the base ownership watermark — *exactly*, because
        // fingerprint locations exclude the base watermark's cells.
        for leaked in [&a, &b] {
            let report = fleet.base.verify(leaked).expect("verify");
            assert_eq!(
                report.wer(),
                100.0,
                "fingerprint corrupted the base watermark"
            );
            assert!(report.proves_ownership(-9.0));
        }
    }

    #[test]
    fn leak_is_attributed_to_the_right_device() {
        let mut fleet = fleet();
        let ids = ["alice", "bob", "carol"];
        let deployments: Vec<QuantizedModel> = ids
            .iter()
            .map(|id| fleet.provision(id).expect("provision"))
            .collect();
        for (i, leaked) in deployments.iter().enumerate() {
            let (device, report) = fleet
                .identify_leak(leaked, -6.0)
                .expect("identify")
                .expect("found");
            assert_eq!(device.device_id, ids[i], "leak misattributed");
            assert!(report.wer() >= 90.0);
        }
    }

    #[test]
    fn unfingerprinted_model_is_not_attributed() {
        let mut fleet = fleet();
        let _ = fleet.provision("alice").expect("provision");
        // The bare base-watermarked model (no fingerprint) must not be
        // attributed to any device.
        let base_only = fleet.base.watermark_for_deployment().expect("deploy");
        let found = fleet.identify_leak(&base_only, -6.0).expect("identify");
        assert!(found.is_none(), "false attribution: {found:?}");
    }

    #[test]
    fn provisioning_is_deterministic_per_device_id() {
        let mut fleet_a = fleet();
        let mut fleet_b = fleet();
        let a = fleet_a.provision("same-id").expect("a");
        let b = fleet_b.provision("same-id").expect("b");
        assert!(a.same_weights(&b));
    }

    /// The family reads as W and the family cache as the
    /// base-watermarked model at *every* cell — the ownership cells
    /// (overlaid bits) and cells outside the pools (the fallback)
    /// included — whether the family is decoded or a keyed vault.
    #[test]
    fn family_and_cache_read_as_w_and_the_base_model_everywhere() {
        let fleet = fleet();
        let base = fleet.base.watermark_for_deployment().expect("deploy");
        let path =
            std::env::temp_dir().join(format!("emmark-family-grid-{}.emws", std::process::id()));
        std::fs::write(&path, crate::vault::encode_secrets(&fleet.base)).expect("write vault");
        let decoded = Arc::new(Family::new(fleet.base.clone()).expect("family"));
        let keyed = Arc::new(Family::open(File::open(&path).expect("open")).expect("keyed"));
        let _ = std::fs::remove_file(&path);
        assert!(keyed.is_keyed() && !decoded.is_keyed());
        assert_eq!(keyed.locations(), decoded.locations());
        let provisioner = crate::provision::FleetProvisioner::for_family(
            Arc::clone(&decoded),
            fleet.fingerprint_config,
        )
        .expect("cache");
        let scored = provisioner.family_cache();
        let pools = crate::registry::FingerprintPools::of(scored);
        let from_pools =
            FamilyCache::with_pools(Arc::clone(&keyed), fleet.fingerprint_config, &pools)
                .expect("pools");
        assert_eq!(from_pools.pools, scored.pools);
        for l in 0..base.layer_count() {
            for f in 0..base.layers[l].len() {
                let (w, b) = (fleet.base.original.q_at(l, f), base.q_at(l, f));
                assert_eq!(
                    (decoded.q_at(l, f), keyed.q_at(l, f)),
                    (w, w),
                    "W at ({l}, {f})"
                );
                assert_eq!(
                    (scored.q_at(l, f), from_pools.q_at(l, f)),
                    (b, b),
                    "base at ({l}, {f})"
                );
            }
        }
        keyed.check_reads().expect("vault reads");
    }
}
