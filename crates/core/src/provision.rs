//! Fleet-scale provisioning — the insertion half of the paper's
//! deployment story, built score-once/insert-many.
//!
//! A proprietor stamps one model family onto thousands of edge devices:
//! every device carries the same ownership watermark plus its own
//! traitor-tracing fingerprint ([`crate::fingerprint`]). The serial
//! [`Fleet::provision`] path repeats two expensive, device-independent
//! computations per device — Eqs. 2–4 scoring to reproduce the
//! ownership locations and the fingerprint candidate pools, and a full
//! [`crate::deploy::encode_model`] pass to produce the device artifact.
//!
//! [`FleetProvisioner`] holds the family cache its verifiers share
//! (ownership locations, fingerprint pools, the base-watermarked model
//! at every pool cell) plus the base artifact's **v2 bytes and
//! layer-offset index** — no model. Everything is built from one set of
//! bytes (`Family::base_artifact`): the vault's embedded artifact with
//! the ownership bits patched in. The pools are scored over those bytes
//! one decoded record at a time; every pool not taken from a manifest is
//! scored here ([`FleetVerifier::for_family`] included). Provisioning one device is then pure PRNG
//! sampling plus a delta patch: the device artifact is the base artifact
//! with the fingerprinted cells poked through the offset index
//! ([`crate::deploy::patch_artifact`]), or spliced in flight straight to
//! its sink ([`FleetProvisioner::provision_artifact_into`]) —
//! O(fingerprint bits) byte writes instead of an O(params) re-encode.
//! Batches fan out across scoped threads exactly like
//! [`FleetVerifier::verify_batch`].
//!
//! Cached and serial paths are bit-for-bit identical: provisioned
//! models equal [`Fleet::provision`]'s, and provisioned artifacts are
//! *byte*-identical to encoding the serial models, whether the family
//! came from decoded secrets or a keyed or keyless vault. The module
//! tests and `tests/provision_equivalence.rs` pin these equivalences.

use crate::deploy::{decode_model, splice_patches, CellPatch, LayerIndexEntry, SparseArtifact};
use crate::fingerprint::{DeviceFingerprint, Family, FamilyCache, Fleet};
use crate::fleet::{encode_registry, par_map, FleetVerifier};
use crate::store::{LayerStore, StoreError};
use crate::telemetry::{self, Telemetry};
use crate::vault::FleetBundleWriter;
use crate::watermark::{GridSource, OwnerSecrets, WatermarkConfig, WatermarkError};
use bytes::Bytes;
use emmark_quant::QuantizedModel;
use std::io::Write;
use std::sync::Arc;

/// One provisioned device: its registry entry and its deployable v2
/// artifact (byte-identical to encoding the serially fingerprinted
/// model).
#[derive(Debug, Clone, PartialEq)]
pub struct ProvisionedDevice {
    /// The registry entry [`Fleet::provision`] would record.
    pub fingerprint: DeviceFingerprint,
    /// The device's deploy-codec artifact (v2, indexed).
    pub artifact: Vec<u8>,
}

/// Batch provisioning engine: compute scores, pools, and the ownership
/// watermark once per model family, then stamp per-device fingerprints
/// in parallel.
///
/// Construction pays the device-independent costs once; every
/// provisioning call afterwards is read-only over the cache, so batches
/// parallelize freely.
#[derive(Debug, Clone)]
pub struct FleetProvisioner {
    /// Shared with every verifier [`Self::verifier`] hands out.
    cache: Arc<FamilyCache>,
    /// The base-watermarked model's v2 bytes, every device's delta base.
    base_artifact: Bytes,
    /// The base artifact's layer-offset table, parsed once — the delta
    /// encoder patches device cells straight through it.
    index: Vec<LayerIndexEntry>,
}

impl FleetProvisioner {
    /// Builds the engine from the owner's secrets and the fingerprint
    /// parameters.
    ///
    /// # Errors
    ///
    /// Rejects an inconsistent secret bundle
    /// ([`WatermarkError::SignatureLength`],
    /// [`WatermarkError::InvalidConfig`]) and propagates
    /// location-reproduction errors.
    pub fn new(
        base: OwnerSecrets,
        fingerprint_config: WatermarkConfig,
    ) -> Result<Self, WatermarkError> {
        Self::for_family(Arc::new(Family::new(base)?), fingerprint_config)
            .map_err(StoreError::into_watermark)
    }

    /// Builds the engine over an opened family: a vault opened with
    /// [`Family::open`] (keyed, or keyless with its key derived at open),
    /// or decoded secrets through [`Family::new`]. All take the same path
    /// from the base artifact's bytes on, and provision byte-identical
    /// devices.
    ///
    /// The whole base artifact is decoded once, one record at a time, as
    /// the pools are scored over it: a vault whose embedded model does
    /// not decode is refused here, before any device is stamped.
    ///
    /// # Errors
    ///
    /// An invalid fingerprint config, pool-scoring errors, and read or
    /// decode failures of a keyed vault's artifact.
    pub fn for_family(
        family: Arc<Family>,
        fingerprint_config: WatermarkConfig,
    ) -> Result<Self, StoreError> {
        let base_artifact = family.base_artifact()?;
        let base = SparseArtifact::open(&base_artifact)?;
        // Every device ships the head too; scoring decodes the records.
        base.head()?;
        let cache = FamilyCache::scored(family, fingerprint_config, &base)?;
        let index = base.layer_index().to_vec();
        Ok(Self {
            cache: Arc::new(cache),
            base_artifact,
            index,
        })
    }

    /// The fingerprint parameters devices are provisioned with.
    pub fn fingerprint_config(&self) -> &WatermarkConfig {
        &self.cache.fingerprint_config
    }

    /// The shared family cache — sharded registry provisioning
    /// ([`crate::registry`]) derives per-device material through it.
    pub(crate) fn family_cache(&self) -> &Arc<FamilyCache> {
        &self.cache
    }

    /// The base-watermarked model (ownership watermark only, no
    /// fingerprint) — the state every device artifact is a delta of —
    /// decoded from [`Self::base_artifact`] on each call.
    pub fn base_deployed(&self) -> QuantizedModel {
        decode_model(&self.base_artifact).expect("construction decoded the base artifact")
    }

    /// The base-watermarked model's v2 artifact bytes.
    pub fn base_artifact(&self) -> &[u8] {
        &self.base_artifact
    }

    /// Provisions one device as an in-memory model — bit-identical to
    /// [`Fleet::provision`] for the same device id, without mutating a
    /// registry. Decodes the device artifact.
    pub fn provision_model(&self, device_id: &str) -> (DeviceFingerprint, QuantizedModel) {
        let device = self.provision_artifact(device_id);
        let model =
            decode_model(&device.artifact).expect("a patched base artifact decodes like the base");
        (device.fingerprint, model)
    }

    /// A device's registry entry and the delta its fingerprint makes
    /// against the base artifact: one [`CellPatch`] per signature bit.
    /// Shared by the buffered and streaming artifact emitters.
    fn device_delta(&self, device_id: &str) -> (DeviceFingerprint, Vec<CellPatch>) {
        let (fingerprint, sig, locs) = self.cache.device_material(device_id);
        let n = self.index.len();
        let mut patches = Vec::with_capacity(sig.len());
        for (l, layer_locs) in locs.iter().enumerate() {
            let bits = sig.layer_bits(l, n);
            for (&f, &b) in layer_locs.iter().zip(bits) {
                // Same arithmetic as `bump_q_flat`: pools exclude
                // clamped cells, so the bump stays in range. The cache
                // holds the base model at every pool cell.
                let q = self.cache.q_at(l, f) + b;
                patches.push(CellPatch {
                    layer: l,
                    flat: f,
                    q,
                });
            }
        }
        (fingerprint, patches)
    }

    /// Provisions one device as a deployable artifact via the delta
    /// encoder: the cached base artifact with the device's fingerprint
    /// cells patched through the v2 offset index. Byte-identical to
    /// `encode_model(&fleet.provision(device_id))`, at one buffer copy
    /// plus O(fingerprint bits) cost.
    pub fn provision_artifact(&self, device_id: &str) -> ProvisionedDevice {
        let (fingerprint, patches) = self.device_delta(device_id);
        let artifact = crate::deploy::patch_artifact(&self.base_artifact, &self.index, &patches)
            .expect("pool-derived patches are always in range");
        if Telemetry::enabled() {
            telemetry::PROVISION_DEVICES.incr();
        }
        ProvisionedDevice {
            fingerprint,
            artifact,
        }
    }

    /// Streams one device's artifact straight into `out` — the base
    /// artifact bytes with the fingerprint patches spliced in flight
    /// ([`splice_patches`]). Byte-identical to
    /// [`Self::provision_artifact`], but the device artifact is *never*
    /// resident: per-device memory is O(fingerprint bits) beyond the
    /// shared base, which is what lets `fleet-provision` stamp
    /// arbitrarily many devices under a fixed memory budget. `out` is
    /// flushed before this returns, so a buffered sink's failed tail is
    /// an error, not a short file.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from `out`, the final flush included.
    pub fn provision_artifact_into<W: Write>(
        &self,
        device_id: &str,
        out: W,
    ) -> Result<DeviceFingerprint, StoreError> {
        let (fingerprint, mut out) = self.provision_artifact_after(device_id, |_, _| out)?;
        out.flush().map_err(|source| StoreError::Io {
            what: "flushing a provisioned artifact",
            source,
        })?;
        Ok(fingerprint)
    }

    /// [`Self::provision_artifact_into`] behind a header that depends on
    /// the device: `open` gets the fingerprint and the artifact length
    /// and returns the sink, which the artifact is spliced onto and
    /// which is handed back. emmarkd writes its reply header this way,
    /// so a provision reply is one buffer.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the sink.
    pub(crate) fn provision_artifact_after<W: Write>(
        &self,
        device_id: &str,
        open: impl FnOnce(&DeviceFingerprint, usize) -> W,
    ) -> Result<(DeviceFingerprint, W), StoreError> {
        let (fingerprint, patches) = self.device_delta(device_id);
        let mut out = open(&fingerprint, self.base_artifact.len());
        splice_patches(&self.base_artifact, &self.index, &patches, &mut out)?;
        if Telemetry::enabled() {
            telemetry::PROVISION_DEVICES.incr();
        }
        Ok((fingerprint, out))
    }

    /// Streams a whole provisioned fleet into an EMFB bundle writer:
    /// per device, the entry header plus the spliced artifact bytes go
    /// straight to the underlying writer. Byte-identical to encoding
    /// [`Self::provision_batch`]'s output with
    /// [`crate::vault::encode_fleet_bundle`], at O(base artifact)
    /// total memory instead of O(fleet).
    ///
    /// Returns the registry entries in input order.
    ///
    /// # Errors
    ///
    /// Propagates writer failures.
    pub fn provision_bundle_into<W: Write, S: AsRef<str>>(
        &self,
        device_ids: &[S],
        out: W,
    ) -> Result<Vec<DeviceFingerprint>, StoreError> {
        let mut writer = FleetBundleWriter::new(out, self.fingerprint_config(), device_ids.len())?;
        let mut devices = Vec::with_capacity(device_ids.len());
        for id in device_ids {
            let (fingerprint, patches) = self.device_delta(id.as_ref());
            writer.append_streamed(&fingerprint, self.base_artifact.len(), |w| {
                splice_patches(&self.base_artifact, &self.index, &patches, w)
            })?;
            if Telemetry::enabled() {
                telemetry::PROVISION_DEVICES.incr();
            }
            devices.push(fingerprint);
        }
        writer.finish()?;
        Ok(devices)
    }

    /// Provisions a batch of device ids in parallel on `jobs` worker
    /// threads (`None` = one per available core). Output order matches
    /// input order, and every artifact is byte-for-byte what
    /// [`Self::provision_artifact`] returns serially.
    pub fn provision_batch<S: AsRef<str> + Sync>(
        &self,
        device_ids: &[S],
        jobs: Option<usize>,
    ) -> Vec<ProvisionedDevice> {
        par_map(device_ids, jobs, |id| self.provision_artifact(id.as_ref()))
    }

    /// The fleet registry for a set of provisioned devices, in the
    /// [`crate::fleet::encode_registry`] wire format `fleet-verify`
    /// consumes.
    pub fn registry(&self, provisioned: &[ProvisionedDevice]) -> Bytes {
        let devices: Vec<DeviceFingerprint> =
            provisioned.iter().map(|p| p.fingerprint.clone()).collect();
        encode_registry(self.fingerprint_config(), &devices)
    }

    /// A [`FleetVerifier`] sharing this provisioner's family cache — the
    /// provision→verify flow without re-scoring or copying anything.
    /// Verdicts are bit-identical to [`FleetVerifier::from_parts`] on the
    /// same inputs.
    pub fn verifier(&self, devices: Vec<DeviceFingerprint>) -> FleetVerifier {
        if Telemetry::enabled() {
            telemetry::FLEET_CACHE_HITS.incr();
        }
        FleetVerifier::from_cache(Arc::clone(&self.cache), devices)
    }

    /// Converts into the serial [`Fleet`] API with `devices` already
    /// registered (e.g. to keep provisioning incrementally), decoding a
    /// keyed vault's W.
    ///
    /// # Errors
    ///
    /// Read and decode failures of a keyed vault's artifact.
    pub fn into_fleet(self, devices: Vec<DeviceFingerprint>) -> Result<Fleet, StoreError> {
        let secrets = self.cache.family.decoded_secrets()?;
        Ok(Fleet::with_devices(
            secrets,
            *self.fingerprint_config(),
            devices,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::encode_model;
    use emmark_nanolm::config::ModelConfig;
    use emmark_nanolm::TransformerModel;
    use emmark_quant::awq::{awq, AwqConfig};

    fn base_secrets() -> OwnerSecrets {
        let mut model = TransformerModel::new(ModelConfig::tiny_test());
        let calib: Vec<Vec<u32>> = (0..4u32)
            .map(|s| (0..16u32).map(|i| (i * 7 + s) % 31).collect())
            .collect();
        let stats = model.collect_activation_stats(&calib);
        let qm = awq(&model, &stats, &AwqConfig::default());
        let cfg = WatermarkConfig {
            bits_per_layer: 4,
            pool_ratio: 10,
            ..Default::default()
        };
        OwnerSecrets::new(qm, stats, cfg, 0xF1EE7)
    }

    fn fp_cfg() -> WatermarkConfig {
        WatermarkConfig {
            bits_per_layer: 3,
            pool_ratio: 10,
            selection_seed: 0xDE11CE,
            ..Default::default()
        }
    }

    #[test]
    fn provisioned_models_match_the_serial_fleet_path() {
        let provisioner = FleetProvisioner::new(base_secrets(), fp_cfg()).expect("cache");
        let mut fleet = Fleet::new(base_secrets(), fp_cfg());
        for id in ["alice", "bob", "carol"] {
            let serial = fleet.provision(id).expect("provision");
            let (fp, cached) = provisioner.provision_model(id);
            assert!(cached.same_weights(&serial), "{id}: models diverged");
            assert_eq!(
                &fp,
                fleet.devices().last().expect("registered"),
                "{id}: registry entries diverged"
            );
        }
    }

    #[test]
    fn delta_patched_artifacts_are_byte_identical_to_serial_encodes() {
        let provisioner = FleetProvisioner::new(base_secrets(), fp_cfg()).expect("cache");
        let mut fleet = Fleet::new(base_secrets(), fp_cfg());
        for id in ["edge-00", "edge-01", "edge-02"] {
            let serial_bytes = encode_model(&fleet.provision(id).expect("provision")).to_vec();
            let provisioned = provisioner.provision_artifact(id);
            assert_eq!(
                provisioned.artifact, serial_bytes,
                "{id}: delta patch must be byte-identical to a full re-encode"
            );
        }
    }

    #[test]
    fn batch_is_order_preserving_and_identical_serial_and_parallel() {
        let ids: Vec<String> = (0..7).map(|i| format!("edge-{i:02}")).collect();
        let provisioner = FleetProvisioner::new(base_secrets(), fp_cfg()).expect("cache");
        let serial = provisioner.provision_batch(&ids, Some(1));
        let parallel = provisioner.provision_batch(&ids, Some(4));
        assert_eq!(serial, parallel);
        for (id, p) in ids.iter().zip(&serial) {
            assert_eq!(&p.fingerprint.device_id, id);
        }
    }

    #[test]
    fn provisioned_artifacts_verify_and_attribute_through_the_shared_cache() {
        let provisioner = FleetProvisioner::new(base_secrets(), fp_cfg()).expect("cache");
        let ids = ["a", "b", "c"];
        let provisioned = provisioner.provision_batch(&ids, None);
        let devices: Vec<DeviceFingerprint> =
            provisioned.iter().map(|p| p.fingerprint.clone()).collect();
        let verifier = provisioner.verifier(devices.clone());
        // Must be bit-identical to a verifier built from scratch.
        let from_scratch =
            FleetVerifier::from_parts(base_secrets(), fp_cfg(), devices).expect("cache");
        for (i, p) in provisioned.iter().enumerate() {
            let verdict = verifier.verify_artifact(&p.artifact, -6.0).expect("verify");
            let scratch = from_scratch
                .verify_artifact(&p.artifact, -6.0)
                .expect("verify");
            assert_eq!(verdict, scratch, "artifact {i}");
            assert_eq!(verdict.ownership.wer(), 100.0, "artifact {i}");
            let (device, _) = verdict.attribution.expect("attributed");
            assert_eq!(device.device_id, ids[i], "artifact {i}");
        }
    }

    #[test]
    fn verifier_shares_the_provisioner_family_cache() {
        let provisioner = FleetProvisioner::new(base_secrets(), fp_cfg()).expect("cache");
        let verifier = provisioner.verifier(Vec::new());
        assert!(Arc::ptr_eq(provisioner.family_cache(), &verifier.cache));
        // A clone of either engine is one more handle on the same cache.
        assert!(Arc::ptr_eq(
            provisioner.clone().family_cache(),
            &verifier.clone().cache
        ));
    }

    #[test]
    fn registry_from_provisioner_matches_the_serial_fleet_registry() {
        let provisioner = FleetProvisioner::new(base_secrets(), fp_cfg()).expect("cache");
        let mut fleet = Fleet::new(base_secrets(), fp_cfg());
        let ids = ["x", "y"];
        for id in ids {
            fleet.provision(id).expect("provision");
        }
        let provisioned = provisioner.provision_batch(&ids, None);
        let bytes = provisioner.registry(&provisioned);
        assert_eq!(
            bytes,
            encode_registry(&fleet.fingerprint_config, fleet.devices())
        );
    }

    #[test]
    fn base_artifact_decodes_to_the_base_deployed_model() {
        let provisioner = FleetProvisioner::new(base_secrets(), fp_cfg()).expect("cache");
        let decoded = decode_model(provisioner.base_artifact()).expect("decode");
        assert!(decoded.same_weights(&base_secrets().watermark_for_deployment().expect("deploy")));
        // The base artifact carries the ownership watermark but no
        // fingerprint: never attributed to any provisioned device.
        let provisioned = provisioner.provision_batch(&["a", "b"], None);
        let devices = provisioned.iter().map(|p| p.fingerprint.clone()).collect();
        let verifier = provisioner.verifier(devices);
        let verdict = verifier
            .verify_artifact(provisioner.base_artifact(), -6.0)
            .expect("verify");
        assert_eq!(verdict.ownership.wer(), 100.0);
        assert!(verdict.attribution.is_none(), "false attribution");
    }

    #[test]
    fn into_fleet_continues_the_registry_where_the_batch_left_off() {
        let provisioner = FleetProvisioner::new(base_secrets(), fp_cfg()).expect("cache");
        let provisioned = provisioner.provision_batch(&["a", "b"], None);
        let devices: Vec<DeviceFingerprint> =
            provisioned.iter().map(|p| p.fingerprint.clone()).collect();
        let mut fleet = provisioner.into_fleet(devices.clone()).expect("fleet");
        assert_eq!(fleet.devices(), devices.as_slice());
        let c = fleet.provision("c").expect("provision");
        assert_eq!(fleet.devices().len(), 3);
        // The incremental device matches a from-scratch serial fleet.
        let mut serial = Fleet::new(base_secrets(), fp_cfg());
        for id in ["a", "b"] {
            serial.provision(id).expect("provision");
        }
        let serial_c = serial.provision("c").expect("provision");
        assert!(c.same_weights(&serial_c));
    }

    #[test]
    fn corrupt_secret_bundle_is_rejected_at_construction() {
        let base = base_secrets();
        let mut bad_fp = fp_cfg();
        bad_fp.bits_per_layer = 0;
        assert!(matches!(
            FleetProvisioner::new(base.clone(), bad_fp),
            Err(WatermarkError::InvalidConfig(_))
        ));
        let mut bad = base;
        bad.signature = crate::signature::Signature::generate(bad.signature.len() + 1, 9);
        assert!(matches!(
            FleetProvisioner::new(bad, fp_cfg()),
            Err(WatermarkError::SignatureLength { .. })
        ));
    }
}
