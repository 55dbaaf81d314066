//! Fleet-scale batch verification — the deployment half of the paper's
//! IP-protection story.
//!
//! A proprietor ships one watermarked model to thousands of edge
//! devices ([`crate::fingerprint`] gives each a traitor-tracing
//! fingerprint on top of the shared ownership watermark). Ownership
//! disputes and leak tracing then have to run against the *whole fleet*:
//! many suspect artifacts, many registered devices. Doing that with the
//! serial [`Fleet`] API repeats two expensive, device-independent
//! computations per check — reproducing the ownership locations
//! (score + sort every layer) and rebuilding the base-watermarked
//! reference model.
//!
//! [`FleetVerifier`] reads everything device-independent (ownership
//! locations, base-watermarked reference, fingerprint pools) from one
//! family cache, built once per (family, fingerprint config) and shared
//! with [`crate::provision::FleetProvisioner`]; verifying one artifact is
//! then pure PRNG sampling plus integer diffs, and a batch of artifacts
//! fans out across a thread pool.
//! Artifacts are opened as [`SparseArtifact`]s, so a worker reads only
//! the header and the probed watermark cells — per-artifact work scales
//! with watermark length, not parameter count. The suspect lives only
//! for the duration of the call and no model is ever cloned.
//!
//! With a persisted [`LeakIndex`] attached ([`FleetVerifier::with_index`],
//! [`crate::registry::ShardedRegistry::into_verifier`]), leak
//! identification narrows candidates through the index instead of
//! scoring every registered device; verdicts are bit-identical to the
//! linear scan ([`FleetVerifier::identify_leak_linear`]).
//!
//! Cached and uncached paths are bit-for-bit identical; the test suite
//! and `tests/fleet_engine.rs` pin that equivalence.

use crate::deploy::{CodecError, Section, SparseArtifact};
use crate::fingerprint::{derive_device, keep_best, DeviceFingerprint, Family, FamilyCache, Fleet};
use crate::provision::FleetProvisioner;
use crate::registry::{FingerprintPools, LeakIndex};
use crate::signature::Signature;
use crate::store::StoreError;
use crate::telemetry::{self, Telemetry};
use crate::watermark::{
    check_same_grid, extract_with_locations, ExtractionReport, GridSource, Locations, OwnerSecrets,
    ProofCutoff, WatermarkConfig, WatermarkError,
};
use bytes::{BufMut, Bytes, BytesMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Errors of fleet verification: a suspect artifact that fails to
/// decode, or watermark extraction failing on the decoded model.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// The artifact bytes are not a valid deploy-codec model.
    Codec(CodecError),
    /// Extraction failed (shape mismatch, pool shortage, …).
    Watermark(WatermarkError),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Codec(e) => write!(f, "artifact decode failed: {e}"),
            FleetError::Watermark(e) => write!(f, "verification failed: {e}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Codec(e) => Some(e),
            FleetError::Watermark(e) => Some(e),
        }
    }
}

impl From<CodecError> for FleetError {
    fn from(e: CodecError) -> Self {
        FleetError::Codec(e)
    }
}

impl From<WatermarkError> for FleetError {
    fn from(e: WatermarkError) -> Self {
        FleetError::Watermark(e)
    }
}

/// Per-device verdicts of a streamed bundle verification, in bundle
/// order: `(device id, verdict)`.
pub type BundleVerdicts = Vec<(String, Result<FleetVerdict, FleetError>)>;

/// Outcome of verifying one suspect artifact against the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetVerdict {
    /// Ownership watermark extraction (Eqs. 6–8) against the base
    /// secrets.
    pub ownership: ExtractionReport,
    /// The traced device and its fingerprint report, when one clears
    /// the significance threshold.
    pub attribution: Option<(DeviceFingerprint, ExtractionReport)>,
}

impl FleetVerdict {
    /// Whether the ownership watermark clears `log10_threshold`.
    pub fn proves_ownership(&self, log10_threshold: f64) -> bool {
        self.ownership.proves_ownership(log10_threshold)
    }
}

/// Batch verification engine over a registry of device fingerprints.
///
/// The device-independent state (ownership locations, base-watermarked
/// reference, fingerprint candidate pools) is one shared family cache:
/// [`Self::from_parts`] builds it, [`crate::provision::FleetProvisioner::verifier`]
/// shares the provisioner's. Nothing is paid per device: a device's
/// signature and locations are a pure function of its seeds, derived
/// when a check needs them. Indexed
/// identification and [`Self::device_report`] derive only the devices
/// they score, so their cost follows the candidates, not the fleet; the
/// linear scan and [`Self::leak_index`] derive the whole table once, on
/// first use. Verification is otherwise read-only, so batches
/// parallelize freely. An attached [`LeakIndex`] makes leak
/// identification sublinear in fleet size.
#[derive(Debug, Clone)]
pub struct FleetVerifier {
    /// The family and its fingerprint pools (scored once, or read from a
    /// manifest); fingerprint diffs are taken against it as the
    /// base-watermarked reference.
    pub(crate) cache: Arc<FamilyCache>,
    devices: Vec<DeviceFingerprint>,
    /// Per registered device: its signature and sampled locations,
    /// filled on first use by the linear scan or [`Self::leak_index`].
    device_material: OnceLock<Vec<(Signature, Locations)>>,
    /// The fingerprint-cell inverted index over `devices`, when one is
    /// attached; [`Self::identify_leak`] then probes it instead of
    /// scanning every device.
    index: Option<LeakIndex>,
}

impl FleetVerifier {
    /// Builds the engine from a serial [`Fleet`] (same registry, same
    /// verdicts, cached hot path).
    ///
    /// # Errors
    ///
    /// Propagates location-reproduction errors.
    pub fn new(fleet: &Fleet) -> Result<Self, WatermarkError> {
        Self::from_parts(
            fleet.base.clone(),
            fleet.fingerprint_config,
            fleet.devices().to_vec(),
        )
    }

    /// Builds the engine from raw parts — typically secrets loaded from
    /// the vault plus a registry loaded with [`decode_registry`].
    ///
    /// # Errors
    ///
    /// Rejects an inconsistent secret bundle
    /// ([`WatermarkError::SignatureLength`], [`WatermarkError::InvalidConfig`])
    /// and propagates location-reproduction errors.
    pub fn from_parts(
        base: OwnerSecrets,
        fingerprint_config: WatermarkConfig,
        devices: Vec<DeviceFingerprint>,
    ) -> Result<Self, WatermarkError> {
        Self::for_family(Family::new(base)?, fingerprint_config, devices, None)
            .map_err(StoreError::into_watermark)
    }

    /// Builds the engine over an opened [`Family`] ([`Family::open`], or
    /// [`Family::new`] over decoded secrets). The fingerprint pools come
    /// from `pools` (a manifest's, checked against the family's binding
    /// and grid) when given. Otherwise they are scored as
    /// [`FleetProvisioner::for_family`] scores them: over the family's
    /// base artifact, one record at a time. The two sources differ only
    /// there: extraction is the same code and verdicts are bit-identical.
    ///
    /// # Errors
    ///
    /// An invalid fingerprint config, pools that do not belong to the
    /// family, pool-scoring errors, and read or decode failures of the
    /// vault's artifact.
    pub fn for_family(
        family: Family,
        fingerprint_config: WatermarkConfig,
        devices: Vec<DeviceFingerprint>,
        pools: Option<&FingerprintPools>,
    ) -> Result<Self, StoreError> {
        let family = Arc::new(family);
        let cache = match pools {
            Some(pools) => Arc::new(FamilyCache::with_pools(family, fingerprint_config, pools)?),
            None => {
                Arc::clone(FleetProvisioner::for_family(family, fingerprint_config)?.family_cache())
            }
        };
        Ok(Self::from_cache(cache, devices))
    }

    /// Builds the engine around an already-built [`FamilyCache`] — the
    /// provision→verify flow ([`crate::provision::FleetProvisioner`])
    /// shares its cache here instead of paying the Eqs. 2–4 scoring a
    /// second time.
    pub(crate) fn from_cache(cache: Arc<FamilyCache>, devices: Vec<DeviceFingerprint>) -> Self {
        Self {
            cache,
            devices,
            device_material: OnceLock::new(),
            index: None,
        }
    }

    /// Every registered device's material in registration order, derived
    /// once on first call.
    fn all_material(&self) -> &[(Signature, Locations)] {
        self.device_material.get_or_init(|| {
            let material = |d| self.cache.fingerprint_material(d);
            self.devices.iter().map(material).collect()
        })
    }

    /// Without an index every identification in a batch scans the whole
    /// material table: derive it up front on the calling thread, before
    /// the batch's artifacts and workers are resident, instead of in
    /// whichever worker gets there first while the rest block on it.
    fn prime_linear_batch(&self) {
        if self.index.is_none() {
            self.all_material();
        }
    }

    /// Attaches a fingerprint-cell inverted index built over this
    /// registry, so [`Self::identify_leak`] takes the indexed path.
    ///
    /// # Errors
    ///
    /// [`WatermarkError::InvalidConfig`] when the index covers a
    /// different device population.
    pub fn with_index(mut self, index: LeakIndex) -> Result<Self, WatermarkError> {
        if index.device_count() != self.devices.len() {
            return Err(WatermarkError::InvalidConfig(format!(
                "leak index covers {} devices, registry has {}",
                index.device_count(),
                self.devices.len()
            )));
        }
        self.index = Some(index);
        Ok(self)
    }

    /// The registered devices, in registration order.
    pub fn devices(&self) -> &[DeviceFingerprint] {
        &self.devices
    }

    /// The fingerprint parameters the registry was provisioned with.
    pub fn fingerprint_config(&self) -> &WatermarkConfig {
        &self.cache.fingerprint_config
    }

    /// Ownership watermark extraction against the cached locations —
    /// bit-for-bit the report [`OwnerSecrets::verify`] produces. The
    /// suspect is any [`GridSource`] (decoded model or sparse artifact).
    ///
    /// # Errors
    ///
    /// Returns [`WatermarkError::ShapeMismatch`] on a foreign layer grid.
    pub fn ownership_report<S: GridSource + ?Sized>(
        &self,
        suspect: &S,
    ) -> Result<ExtractionReport, WatermarkError> {
        self.cache.family.ownership_report(suspect)
    }

    /// The first read error of a keyed vault's artifact since open
    /// ([`Family::check_reads`]); a verdict is valid only when it is
    /// `Ok`.
    ///
    /// # Errors
    ///
    /// The latched read error.
    pub fn check_reads(&self) -> Result<(), StoreError> {
        self.cache.family.check_reads()
    }

    /// Fingerprint extraction for one device, registered or not —
    /// bit-for-bit the report [`Fleet::device_report`] produces, using
    /// the cached pools instead of re-scoring every layer.
    ///
    /// # Errors
    ///
    /// Returns [`WatermarkError::ShapeMismatch`] on a foreign layer grid.
    pub fn device_report<S: GridSource + ?Sized>(
        &self,
        device: &DeviceFingerprint,
        leaked: &S,
    ) -> Result<ExtractionReport, WatermarkError> {
        let _span = telemetry::Span::enter(&telemetry::FLEET_VERIFY_NS);
        if Telemetry::enabled() {
            telemetry::FLEET_REPORTS.incr();
        }
        let (sig, locs) = self.cache.fingerprint_material(device);
        extract_with_locations(leaked, &*self.cache, &locs, &sig)
    }

    /// Traces a leaked model to the registered device whose fingerprint
    /// clears `log10_threshold` with the best margin — through the
    /// attached [`LeakIndex`] when there is one, otherwise by
    /// [`Self::identify_leak_linear`]. Both paths return bit-identical
    /// verdicts.
    ///
    /// # Errors
    ///
    /// Propagates extraction errors; the indexed path also rejects an
    /// index naming cells outside the registry's layer grid.
    pub fn identify_leak<S: GridSource + ?Sized>(
        &self,
        leaked: &S,
        log10_threshold: f64,
    ) -> Result<Option<(&DeviceFingerprint, ExtractionReport)>, WatermarkError> {
        match &self.index {
            Some(index) => self.identify_leak_indexed(index, leaked, log10_threshold),
            None => self.identify_leak_linear(leaked, log10_threshold),
        }
    }

    /// Linear leak attribution: extracts every registered device's
    /// fingerprint — the cached counterpart of [`Fleet::identify_leak`]
    /// and the oracle the indexed path is checked against.
    ///
    /// # Errors
    ///
    /// Propagates extraction errors.
    pub fn identify_leak_linear<S: GridSource + ?Sized>(
        &self,
        leaked: &S,
        log10_threshold: f64,
    ) -> Result<Option<(&DeviceFingerprint, ExtractionReport)>, WatermarkError> {
        let span = telemetry::Span::enter(&telemetry::IDENTIFY_NS);
        let mut best: Option<(&DeviceFingerprint, ExtractionReport)> = None;
        // The clearing threshold as a match count, converted once (every
        // device report has the same signature length); non-clearing
        // devices — almost all of them — then cost an integer compare
        // instead of a binomial tail.
        let mut cutoff = ProofCutoff::new(log10_threshold);
        for (device, (sig, locs)) in self.devices.iter().zip(self.all_material()) {
            let report = extract_with_locations(leaked, &*self.cache, locs, sig)?;
            keep_best(&mut best, &mut cutoff, device, report);
        }
        if Telemetry::enabled() {
            // The linear scan extracts against every registered device —
            // candidates == devices is the pruning baseline the indexed
            // path is measured against.
            telemetry::IDENTIFY_DEVICES.add(self.devices.len() as u64);
            telemetry::IDENTIFY_CANDIDATES.add(self.devices.len() as u64);
        }
        drop(span);
        Ok(best)
    }

    /// Traces a leaked model through the attached fingerprint-cell
    /// inverted index instead of scoring every registered device: the
    /// suspect's deltas at the index's cells are read once, bucket
    /// lookups count exact per-device matched bits, and only the devices
    /// whose counts clear the [`ProofCutoff`] — typically zero or one of
    /// N — have their material derived and get the full Eq. 8
    /// extraction. Verdicts (device *and* report, matched-bit counts
    /// included) are bit-identical to [`Self::identify_leak_linear`];
    /// the index only narrows, Eq. 8 decides.
    ///
    /// # Errors
    ///
    /// Returns [`WatermarkError::ShapeMismatch`] on a foreign layer grid
    /// (exactly when the linear scan would), and
    /// [`WatermarkError::InvalidConfig`] if the index names a cell
    /// outside the registry's layer grid.
    fn identify_leak_indexed<S: GridSource + ?Sized>(
        &self,
        index: &LeakIndex,
        leaked: &S,
        log10_threshold: f64,
    ) -> Result<Option<(&DeviceFingerprint, ExtractionReport)>, WatermarkError> {
        if self.devices.is_empty() {
            // The linear scan never touches the suspect with an empty
            // registry; neither may the index path.
            return Ok(None);
        }
        let base_deployed = &*self.cache;
        check_same_grid(leaked, base_deployed)?;
        // A hand-edited manifest could name cells outside the grid;
        // reject it up front instead of panicking mid-count.
        if let Some((l, f)) = index.cell_out_of_bounds(base_deployed) {
            return Err(WatermarkError::InvalidConfig(format!(
                "leak index references cell (layer {l}, flat {f}) outside the registry's layer grid"
            )));
        }
        let mut cutoff = ProofCutoff::new(log10_threshold);
        let total_bits = self
            .cache
            .fingerprint_config
            .signature_len(base_deployed.source_layer_count());
        let Some(min_matched) = cutoff.min_matched(total_bits) else {
            // Even a perfect fingerprint match cannot clear the
            // threshold — the linear scan skips every device.
            return Ok(None);
        };
        let span = telemetry::Span::enter(&telemetry::IDENTIFY_NS);
        let mut best: Option<(&DeviceFingerprint, ExtractionReport)> = None;
        let mut candidates = 0u64;
        // Candidates come back in registration order, so tie-breaking
        // (strictly-better wins, first registration kept) matches the
        // linear scan exactly.
        for d in index.candidates(leaked, base_deployed, min_matched) {
            candidates += 1;
            let (sig, locs) = self.cache.fingerprint_material(&self.devices[d]);
            let report = extract_with_locations(leaked, base_deployed, &locs, &sig)?;
            keep_best(&mut best, &mut cutoff, &self.devices[d], report);
        }
        if Telemetry::enabled() {
            telemetry::IDENTIFY_DEVICES.add(self.devices.len() as u64);
            telemetry::IDENTIFY_CANDIDATES.add(candidates);
        }
        drop(span);
        Ok(best)
    }

    /// Builds the fingerprint-cell inverted index over this registry's
    /// device material — what sharded provisioning persists into the
    /// EMFM manifest ([`crate::registry`]) and [`Self::with_index`]
    /// attaches.
    pub fn leak_index(&self) -> LeakIndex {
        LeakIndex::from_material(
            self.devices.len(),
            self.cache.pools.len(),
            self.all_material(),
        )
    }

    /// Full verdict for one suspect: ownership proof plus leak
    /// attribution ([`Self::identify_leak`]) at `log10_threshold`.
    ///
    /// # Errors
    ///
    /// Propagates extraction errors.
    pub fn verify_model<S: GridSource + ?Sized>(
        &self,
        suspect: &S,
        log10_threshold: f64,
    ) -> Result<FleetVerdict, WatermarkError> {
        let ownership = self.ownership_report(suspect)?;
        let attribution = self
            .identify_leak(suspect, log10_threshold)?
            .map(|(d, r)| (d.clone(), r));
        Ok(FleetVerdict {
            ownership,
            attribution,
        })
    }

    /// Verifies one deploy-codec artifact through the sparse
    /// random-access reader: only the header and the probed watermark
    /// cells are read, so per-artifact work scales with watermark
    /// length, not parameter count.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Codec`] for malformed bytes (a retired v1
    /// artifact is [`CodecError::BadVersion`]), otherwise propagates
    /// extraction errors.
    pub fn verify_artifact(
        &self,
        artifact: &[u8],
        log10_threshold: f64,
    ) -> Result<FleetVerdict, FleetError> {
        let sparse = SparseArtifact::open(artifact)?;
        Ok(self.verify_model(&sparse, log10_threshold)?)
    }

    /// Verifies a batch of deploy-codec artifacts in parallel on `jobs`
    /// worker threads (`None` = one per available core). Output order
    /// matches input order, and every verdict is bit-for-bit what
    /// [`Self::verify_artifact`] returns serially.
    pub fn verify_batch<A: AsRef<[u8]> + Sync>(
        &self,
        artifacts: &[A],
        log10_threshold: f64,
        jobs: Option<usize>,
    ) -> Vec<Result<FleetVerdict, FleetError>> {
        self.prime_linear_batch();
        par_map(artifacts, jobs, |a| {
            self.verify_artifact(a.as_ref(), log10_threshold)
        })
    }

    /// Verifies every device artifact of an EMFB bundle *stream* —
    /// entries are pulled off the reader in rings of at most
    /// `max_resident` artifacts, each ring verified in parallel like
    /// [`Self::verify_batch`], then dropped before the next is read.
    /// Peak memory is O(`max_resident` × artifact), independent of
    /// fleet size; verdicts are bit-identical to decoding the whole
    /// bundle and batch-verifying it.
    ///
    /// Returns `(device id, verdict)` pairs in bundle order.
    ///
    /// # Errors
    ///
    /// Returns the stream's codec/I/O error if the bundle itself is
    /// unreadable (a broken entry makes everything after it garbage);
    /// per-artifact verification failures stay inside the verdict list.
    pub fn verify_bundle_stream<R: std::io::Read>(
        &self,
        stream: &mut crate::vault::FleetBundleStream<R>,
        log10_threshold: f64,
        jobs: Option<usize>,
        max_resident: usize,
    ) -> Result<BundleVerdicts, crate::store::StoreError> {
        self.prime_linear_batch();
        let ring = max_resident.max(1);
        let mut out = Vec::new();
        loop {
            let mut ids = Vec::with_capacity(ring);
            let mut artifacts = Vec::with_capacity(ring);
            for entry in stream.by_ref().take(ring) {
                let device = entry?;
                ids.push(device.fingerprint.device_id);
                artifacts.push(device.artifact);
            }
            if artifacts.is_empty() {
                return Ok(out);
            }
            let verdicts = self.verify_batch(&artifacts, log10_threshold, jobs);
            out.extend(ids.into_iter().zip(verdicts));
        }
    }
}

/// Derives the registry entry [`Fleet::provision`] would create for a
/// device id under this fingerprint config, without inserting anything.
pub fn registry_entry(fingerprint_config: &WatermarkConfig, device_id: &str) -> DeviceFingerprint {
    derive_device(fingerprint_config, device_id)
}

/// Stack per worker thread, here and in emmarkd's pool: small, because
/// stacks count against an address-space cap (`ulimit -v` in CI).
pub(crate) const WORKER_STACK_BYTES: usize = 512 * 1024;

/// Order-preserving parallel map over a slice: a work queue drained by
/// `jobs` threads, the calling thread among them (`None` = one per
/// available core; the offline stand-in for `rayon`'s `par_iter`, see
/// DESIGN.md §6). A helper thread the OS refuses to spawn only means
/// fewer helpers — the calling thread drains whatever is left — never a
/// panic or a lost item. Shared by batch verification and batch
/// provisioning ([`crate::provision`], and the CLI's per-device file
/// writers), so their threading policy cannot drift apart.
pub fn par_map<T, U, F>(items: &[T], jobs: Option<usize>, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let jobs = jobs.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(items.len()));
    let work = || {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            local.push((i, f(item)));
        }
        collected
            .lock()
            .expect("fleet worker panicked")
            .extend(local);
    };
    std::thread::scope(|scope| {
        for _ in 1..jobs {
            let helper = std::thread::Builder::new()
                .stack_size(WORKER_STACK_BYTES)
                .spawn_scoped(scope, work);
            if helper.is_err() {
                break;
            }
        }
        work();
    });
    let mut indexed = collected.into_inner().expect("fleet worker panicked");
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, u)| u).collect()
}

pub(crate) const REGISTRY_MAGIC: &[u8; 4] = b"EMFR";
pub(crate) const REGISTRY_VERSION: u32 = 1;

/// Reads the shared fingerprint-parameter header of the registry and
/// fleet-bundle codecs: format version (checked against `expected`),
/// then a validated [`WatermarkConfig`]. The magic word has already
/// been consumed by the caller (it differs between the two).
pub(crate) fn read_config_header(
    r: &mut crate::deploy::Reader,
    expected_version: u32,
) -> Result<WatermarkConfig, CodecError> {
    let version = r.u32("format version")?;
    if version != expected_version {
        return Err(CodecError::BadVersion(version));
    }
    let config = r.watermark_config()?;
    config
        .validate()
        .map_err(|e| r.corrupt(format!("fingerprint config: {e}")))?;
    Ok(config)
}

/// Reads one device entry (id + seeds) in the wire layout shared by the
/// registry and the fleet bundle, blaming [`Section::Device`] `i` —
/// the same per-item error context the deploy codec gives layers.
pub(crate) fn read_device_entry(
    r: &mut crate::deploy::Reader,
    i: usize,
) -> Result<DeviceFingerprint, CodecError> {
    r.enter(Section::Device(i));
    let device_id = r.string("device id")?;
    Ok(DeviceFingerprint {
        device_id,
        selection_seed: r.u64("device selection seed")?,
        signature_seed: r.u64("device signature seed")?,
    })
}

/// Serializes a fleet registry: the fingerprint parameters plus every
/// registered device, in the same versioned little-endian style as the
/// deploy codec.
pub fn encode_registry(
    fingerprint_config: &WatermarkConfig,
    devices: &[DeviceFingerprint],
) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + devices.len() * 48);
    buf.put_slice(REGISTRY_MAGIC);
    buf.put_u32_le(REGISTRY_VERSION);
    crate::deploy::put_watermark_config(&mut buf, fingerprint_config);
    buf.put_u32_le(devices.len() as u32);
    for d in devices {
        buf.put_u32_le(d.device_id.len() as u32);
        buf.put_slice(d.device_id.as_bytes());
        buf.put_u64_le(d.selection_seed);
        buf.put_u64_le(d.signature_seed);
    }
    buf.freeze()
}

/// Deserializes a fleet registry written by [`encode_registry`].
///
/// # Errors
///
/// Returns a [`CodecError`] on malformed input, including any byte after
/// the last device entry.
pub fn decode_registry(
    bytes: &[u8],
) -> Result<(WatermarkConfig, Vec<DeviceFingerprint>), CodecError> {
    let mut r = crate::deploy::Reader::new(bytes, Section::Registry);
    r.magic(REGISTRY_MAGIC)?;
    let config = read_config_header(&mut r, REGISTRY_VERSION)?;
    let count = r.u32("device count")? as usize;
    // Each entry is at least 20 bytes (id length + two seeds); bound the
    // allocation by the bytes actually present before trusting `count`.
    r.need(count.saturating_mul(20), "device entries")?;
    let mut devices = Vec::with_capacity(count);
    for i in 0..count {
        devices.push(read_device_entry(&mut r, i)?);
    }
    r.enter(Section::Registry);
    r.finish("device entries")?;
    Ok((config, devices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{decode_model, encode_model};
    use emmark_nanolm::config::ModelConfig;
    use emmark_nanolm::TransformerModel;
    use emmark_quant::awq::{awq, AwqConfig};

    fn fleet_with_devices(ids: &[&str]) -> (Fleet, Vec<Vec<u8>>) {
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
        let mut fleet = Fleet::new(base, fp_cfg);
        let artifacts = ids
            .iter()
            .map(|id| encode_model(&fleet.provision(id).expect("provision")).to_vec())
            .collect();
        (fleet, artifacts)
    }

    #[test]
    fn cached_ownership_report_matches_owner_secrets_verify() {
        let (fleet, artifacts) = fleet_with_devices(&["a", "b"]);
        let verifier = FleetVerifier::new(&fleet).expect("cache");
        for artifact in &artifacts {
            let suspect = decode_model(artifact).expect("decode");
            let cached = verifier.ownership_report(&suspect).expect("cached");
            let uncached = fleet.base.verify(&suspect).expect("uncached");
            assert_eq!(cached, uncached);
        }
    }

    #[test]
    fn cached_device_reports_match_fleet_device_report() {
        let (fleet, artifacts) = fleet_with_devices(&["a", "b", "c"]);
        let verifier = FleetVerifier::new(&fleet).expect("cache");
        for artifact in &artifacts {
            let leaked = decode_model(artifact).expect("decode");
            for device in fleet.devices() {
                let cached = verifier.device_report(device, &leaked).expect("cached");
                let uncached = fleet.device_report(device, &leaked).expect("uncached");
                assert_eq!(cached, uncached, "device {}", device.device_id);
            }
        }
    }

    #[test]
    fn cached_identification_matches_serial_identification() {
        let (fleet, artifacts) = fleet_with_devices(&["alice", "bob", "carol"]);
        let verifier = FleetVerifier::new(&fleet).expect("cache");
        for (i, artifact) in artifacts.iter().enumerate() {
            let leaked = decode_model(artifact).expect("decode");
            let (cached_dev, cached_rep) = verifier
                .identify_leak(&leaked, -6.0)
                .expect("identify")
                .expect("attributed");
            let (serial_dev, serial_rep) = fleet
                .identify_leak(&leaked, -6.0)
                .expect("identify")
                .expect("attributed");
            assert_eq!(cached_dev, serial_dev, "artifact {i}");
            assert_eq!(cached_rep, serial_rep, "artifact {i}");
        }
    }

    #[test]
    fn indexed_paths_derive_only_candidate_material() {
        let ids: Vec<String> = (0..6).map(|i| format!("edge-{i:02}")).collect();
        let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let (fleet, artifacts) = fleet_with_devices(&id_refs);
        let oracle = FleetVerifier::new(&fleet).expect("cache");
        let lazy = FleetVerifier::new(&fleet)
            .expect("cache")
            .with_index(oracle.leak_index())
            .expect("index");
        for artifact in &artifacts {
            let leaked = decode_model(artifact).expect("decode");
            let indexed = lazy.identify_leak(&leaked, -6.0).expect("indexed");
            let linear = oracle.identify_leak_linear(&leaked, -6.0).expect("linear");
            assert!(linear.is_some());
            assert_eq!(indexed, linear);
            for device in fleet.devices() {
                assert_eq!(
                    lazy.device_report(device, &leaked).expect("lazy"),
                    oracle.device_report(device, &leaked).expect("oracle"),
                    "device {}",
                    device.device_id
                );
            }
        }
        assert!(
            lazy.device_material.get().is_none(),
            "indexed identification and device reports must not build the full table"
        );
        assert!(oracle.device_material.get().is_some());
    }

    #[test]
    fn unregistered_device_report_falls_back_to_pool_sampling() {
        let (fleet, artifacts) = fleet_with_devices(&["a"]);
        let verifier = FleetVerifier::new(&fleet).expect("cache");
        let leaked = decode_model(&artifacts[0]).expect("decode");
        let stranger = registry_entry(&fleet.fingerprint_config, "never-registered");
        let cached = verifier.device_report(&stranger, &leaked).expect("cached");
        let uncached = fleet.device_report(&stranger, &leaked).expect("uncached");
        assert_eq!(cached, uncached);
        assert!(
            !cached.proves_ownership(-6.0),
            "stranger must not be attributed"
        );
    }

    #[test]
    fn batch_verdicts_are_identical_serial_and_parallel() {
        let ids: Vec<String> = (0..6).map(|i| format!("edge-{i:02}")).collect();
        let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let (fleet, artifacts) = fleet_with_devices(&id_refs);
        let verifier = FleetVerifier::new(&fleet).expect("cache");
        let serial = verifier.verify_batch(&artifacts, -6.0, Some(1));
        let parallel = verifier.verify_batch(&artifacts, -6.0, Some(4));
        assert_eq!(serial, parallel);
        for (i, verdict) in serial.iter().enumerate() {
            let verdict = verdict.as_ref().expect("verdict");
            assert_eq!(verdict.ownership.wer(), 100.0);
            let (device, _) = verdict.attribution.as_ref().expect("attributed");
            assert_eq!(device.device_id, ids[i]);
        }
    }

    #[test]
    fn malformed_artifacts_fail_without_poisoning_the_batch() {
        let (fleet, mut artifacts) = fleet_with_devices(&["a", "b"]);
        artifacts.insert(1, b"NOPE".to_vec());
        let verifier = FleetVerifier::new(&fleet).expect("cache");
        let verdicts = verifier.verify_batch(&artifacts, -6.0, Some(2));
        assert!(verdicts[0].is_ok());
        assert!(matches!(verdicts[1], Err(FleetError::Codec(_))));
        assert!(verdicts[2].is_ok());
        let msg = verdicts[1].as_ref().unwrap_err().to_string();
        assert!(msg.contains("decode"), "unhelpful error: {msg}");
    }

    #[test]
    fn registry_roundtrips_and_rejects_garbage() {
        let (fleet, _) = fleet_with_devices(&["alpha", "beta"]);
        let bytes = encode_registry(&fleet.fingerprint_config, fleet.devices());
        let (cfg, devices) = decode_registry(&bytes).expect("decode");
        assert_eq!(cfg, fleet.fingerprint_config);
        assert_eq!(devices, fleet.devices());
        assert!(matches!(
            decode_registry(b"EMQM1234"),
            Err(CodecError::BadMagic)
        ));
        for cut in [2usize, 10, bytes.len() / 2, bytes.len() - 3] {
            assert!(
                decode_registry(&bytes[..cut]).is_err(),
                "cut {cut} must not decode"
            );
        }
        let mut trailing = bytes.to_vec();
        trailing.extend_from_slice(&[0; 3]);
        assert_eq!(
            decode_registry(&trailing).expect_err("trailing bytes"),
            CodecError::Corrupt {
                section: Section::Registry,
                offset: bytes.len(),
                msg: "3 trailing bytes after the device entries".into(),
            }
        );
    }

    #[test]
    fn registry_with_invalid_config_is_rejected_not_panicking() {
        let (fleet, _) = fleet_with_devices(&["a"]);
        let mut bad_cfg = fleet.fingerprint_config;
        bad_cfg.pool_ratio = 0;
        let bytes = encode_registry(&bad_cfg, fleet.devices());
        assert!(
            matches!(decode_registry(&bytes), Err(CodecError::Corrupt { .. })),
            "pool_ratio=0 must fail registry decode"
        );
    }

    #[test]
    fn registry_with_huge_device_count_is_truncated_not_oom() {
        let (fleet, _) = fleet_with_devices(&[]);
        let mut bytes = encode_registry(&fleet.fingerprint_config, &[]).to_vec();
        // Overwrite the trailing device-count field with u32::MAX.
        let len = bytes.len();
        bytes[len - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(
            matches!(decode_registry(&bytes), Err(CodecError::Truncated { .. })),
            "absurd device count must be a codec error, not an allocation"
        );
    }

    #[test]
    fn corrupt_secret_bundle_is_rejected_at_cache_build() {
        let (fleet, _) = fleet_with_devices(&["a"]);
        // Signature length no longer matching bits_per_layer × layers —
        // the serial path errors, so the cached path must too.
        let mut bad = fleet.base.clone();
        bad.signature = crate::signature::Signature::generate(bad.signature.len() + 1, 9);
        let err = FleetVerifier::from_parts(bad, fleet.fingerprint_config, Vec::new())
            .expect_err("must reject");
        assert!(matches!(err, WatermarkError::SignatureLength { .. }));

        let mut bad_fp = fleet.fingerprint_config;
        bad_fp.bits_per_layer = 0;
        let err = FleetVerifier::from_parts(fleet.base.clone(), bad_fp, Vec::new())
            .expect_err("must reject");
        assert!(matches!(err, WatermarkError::InvalidConfig(_)));
    }

    #[test]
    fn par_map_preserves_order_for_any_job_count() {
        let items: Vec<usize> = (0..37).collect();
        for jobs in [Some(1), Some(2), Some(3), Some(8), Some(64), None] {
            let out = par_map(&items, jobs, |&i| i * i);
            assert_eq!(
                out,
                items.iter().map(|&i| i * i).collect::<Vec<_>>(),
                "jobs={jobs:?}"
            );
        }
        assert!(par_map::<usize, usize, _>(&[], Some(4), |&i| i).is_empty());
    }
}
