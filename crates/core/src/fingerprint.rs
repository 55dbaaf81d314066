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

use crate::scoring::layer_pool;
use crate::signature::Signature;
use crate::watermark::{
    apply_bits_at, extract_with_locations, locate_watermark, ExtractionReport, GridSource,
    Locations, OwnerSecrets, ProofCutoff, WatermarkConfig, WatermarkError,
};
use emmark_quant::QuantizedModel;
use emmark_tensor::rng::{SplitMix64, Xoshiro256};
use serde::{Deserialize, Serialize};
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
        let pools = fingerprint_pools(
            base_deployed,
            &self.base.stats,
            &base_locs,
            &self.fingerprint_config,
        )?;
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
/// base watermark's own cells score-excluded. The pools depend only on
/// the model family (base weights, activation profile, coefficients),
/// so a batch verifier ([`crate::fleet`]) computes them once and reuses
/// them for every device instead of re-scoring per verification.
///
/// # Errors
///
/// Returns [`WatermarkError::Pool`] if a layer cannot fill its pool.
pub(crate) fn fingerprint_pools(
    base_deployed: &QuantizedModel,
    stats: &emmark_nanolm::model::ActivationStats,
    base_locs: &Locations,
    cfg: &WatermarkConfig,
) -> Result<Vec<Vec<usize>>, WatermarkError> {
    let coeffs = cfg.coefficients();
    let pool_size = cfg.pool_ratio * cfg.bits_per_layer;
    let mut pools = Vec::with_capacity(base_deployed.layer_count());
    // Base locations arrive in sampled-pick order; the scoring kernel
    // wants them ascending. One scratch buffer serves every layer.
    let mut excluded: Vec<usize> = Vec::new();
    for (l, layer) in base_deployed.layers.iter().enumerate() {
        excluded.clear();
        excluded.extend_from_slice(&base_locs[l]);
        excluded.sort_unstable();
        let pool = layer_pool(
            layer,
            &stats.per_layer[l].mean_abs,
            &coeffs,
            pool_size,
            &excluded,
        )
        .map_err(|source| WatermarkError::Pool { layer: l, source })?;
        pools.push(pool);
    }
    Ok(pools)
}

/// One owner's model family, located once: the validated secrets and
/// their ownership locations (Eqs. 2–4), a pure function of the secrets
/// (DESIGN.md §5, invariant 2). Every engine over the family shares one
/// `Arc` of it instead of re-deriving and cloning its own.
#[derive(Debug)]
pub(crate) struct Family {
    pub(crate) secrets: OwnerSecrets,
    pub(crate) locations: Locations,
}

impl Family {
    /// Validates the secret bundle and locates its ownership watermark;
    /// a mis-sized signature is [`WatermarkError::SignatureLength`].
    pub(crate) fn new(secrets: OwnerSecrets) -> Result<Self, WatermarkError> {
        // Corrupt or hand-edited vaults must surface as errors here, once,
        // not as panics inside batch workers or on every warm request.
        let expected = secrets.config.signature_len(secrets.original.layer_count());
        if secrets.signature.len() != expected {
            return Err(WatermarkError::SignatureLength {
                expected,
                got: secrets.signature.len(),
            });
        }
        let locations = locate_watermark(&secrets.original, &secrets.stats, &secrets.config)?;
        Ok(Self { secrets, locations })
    }

    /// Ownership extraction (Eqs. 6–8) against the located cells —
    /// bit-for-bit [`OwnerSecrets::verify`]; see
    /// [`crate::fleet::FleetVerifier::ownership_report`].
    pub(crate) fn ownership_report<S: GridSource + ?Sized>(
        &self,
        suspect: &S,
    ) -> Result<ExtractionReport, WatermarkError> {
        let _span = crate::telemetry::Span::enter(&crate::telemetry::FLEET_VERIFY_NS);
        if crate::telemetry::Telemetry::enabled() {
            crate::telemetry::FLEET_REPORTS.incr();
        }
        extract_with_locations(
            suspect,
            &self.secrets.original,
            &self.locations,
            &self.secrets.signature,
        )
    }
}

/// A [`Family`] extended for one fingerprint config: the
/// base-watermarked reference model every device starts from and the
/// per-layer fingerprint candidate pools (base-excluded).
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
    /// The base-watermarked reference model every device starts from.
    pub(crate) base_deployed: QuantizedModel,
    /// Per-layer fingerprint candidate pools, base-excluded.
    pub(crate) pools: Vec<Vec<usize>>,
}

impl FamilyCache {
    /// Extends a located family for `fingerprint_config`, rejecting an
    /// invalid config or a layer that cannot fill its pool.
    pub(crate) fn new(
        family: Arc<Family>,
        fingerprint_config: WatermarkConfig,
    ) -> Result<Self, WatermarkError> {
        fingerprint_config.validate()?;
        let base = &family.secrets;
        // Apply the base watermark at the located cells (identical to
        // `OwnerSecrets::watermark_for_deployment`, without re-locating).
        let mut base_deployed = base.original.clone();
        apply_bits_at(&mut base_deployed, &family.locations, &base.signature);
        let pools = fingerprint_pools(
            &base_deployed,
            &base.stats,
            &family.locations,
            &fingerprint_config,
        )?;
        if crate::telemetry::Telemetry::enabled() {
            crate::telemetry::FLEET_CACHE_MISSES.incr();
        }
        Ok(Self {
            family,
            fingerprint_config,
            base_deployed,
            pools,
        })
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
        let n = self.base_deployed.layer_count();
        let sig = Signature::generate(cfg.signature_len(n), fp.signature_seed);
        let locs = sample_from_pools(&self.pools, cfg, fp.selection_seed);
        (sig, locs)
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
    let mut h = 0xcbf2_9ce4_8422_2325u64;
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
}
