//! Serialization of the owner's secret material.
//!
//! §4.1: "The watermark consists of (i) signature sequence B; (ii) the
//! random seed d, the original quantized weight W, full-precision
//! activation A_f, and α, β coefficients for location L reproduction."
//! That bundle *is* the ownership proof — it must survive years of
//! storage bit-exactly. This module gives [`OwnerSecrets`] a versioned
//! binary form built on the same primitives as the deploy codec.
//!
//! The vault version tracks the deploy-codec version of the embedded
//! pristine model: a v2 vault embeds a v2 (indexed) artifact. The
//! retired v1 vault is refused with [`CodecError::BadVersion`]; a v2
//! vault embedding an artifact of another version is rejected with
//! [`CodecError::MixedVersion`] instead of a generic decode failure —
//! it only arises from hand-spliced or corrupted vaults.

use crate::deploy::{
    artifact_version, decode_model, encode_model, put_watermark_config, CodecError, Reader,
    Section, FORMAT_V2,
};
use crate::fingerprint::DeviceFingerprint;
use crate::fleet::{read_config_header, read_device_entry};
use crate::provision::ProvisionedDevice;
use crate::signature::Signature;
use crate::store::StoreError;
use crate::watermark::{OwnerSecrets, WatermarkConfig};
use bytes::{BufMut, Bytes, BytesMut};
use emmark_nanolm::model::{ActivationStats, LayerActivation};
use std::io::{Read, Write};

const MAGIC: &[u8; 4] = b"EMWS";
/// Vault version; matches the deploy codec's
/// [`FORMAT_V2`](crate::deploy::FORMAT_V2).
const VERSION: u32 = FORMAT_V2;

/// Serializes the secret bundle (v2, embedding an indexed v2 model
/// artifact).
pub fn encode_secrets(secrets: &OwnerSecrets) -> Bytes {
    let mut buf = BytesMut::with_capacity(1 << 16);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    put_watermark_config(&mut buf, &secrets.config);
    // Signature.
    buf.put_u32_le(secrets.signature.len() as u32);
    for &b in secrets.signature.bits() {
        buf.put_i8(b);
    }
    // Activation stats.
    buf.put_u32_le(secrets.stats.per_layer.len() as u32);
    for layer in &secrets.stats.per_layer {
        buf.put_u32_le(layer.mean_abs.len() as u32);
        for &v in &layer.mean_abs {
            buf.put_f32_le(v);
        }
        for &v in &layer.max_abs {
            buf.put_f32_le(v);
        }
    }
    // Original model, embedded via the deploy codec (length-prefixed).
    let model_bytes = encode_model(&secrets.original);
    buf.put_u32_le(model_bytes.len() as u32);
    buf.put_slice(&model_bytes);
    buf.freeze()
}

/// Deserializes a v2 secret bundle.
///
/// # Errors
///
/// Returns a [`CodecError`] on malformed input, including
/// [`CodecError::BadVersion`] for any vault version but v2 and
/// [`CodecError::MixedVersion`] when the embedded model's format
/// version disagrees with the vault's.
pub fn decode_secrets(bytes: &[u8]) -> Result<OwnerSecrets, CodecError> {
    let mut r = Reader::new(bytes, Section::Vault);
    r.magic(MAGIC)?;
    let version = r.u32("secrets version")?;
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let config = r.watermark_config()?;

    let sig_len = r.u32("signature length")? as usize;
    r.need(sig_len, "signature bits")?;
    let mut bits = Vec::with_capacity(sig_len);
    for _ in 0..sig_len {
        let b = r.i8("signature bit")?;
        if b != 1 && b != -1 {
            return Err(r.corrupt(format!("signature bit {b} is not ±1")));
        }
        bits.push(b);
    }
    let signature = Signature::from_bits(bits);

    let n_layers = r.u32("stats layer count")? as usize;
    // Bound the allocation by the bytes actually present (each layer
    // carries at least a channel-count word) before trusting the count.
    r.need(n_layers.saturating_mul(4), "stats layers")?;
    let mut per_layer = Vec::with_capacity(n_layers);
    for _ in 0..n_layers {
        let channels = r.u32("stats channel count")? as usize;
        r.need(channels * 8, "stats values")?;
        let mut mean_abs = Vec::with_capacity(channels);
        for _ in 0..channels {
            mean_abs.push(r.f32("stats mean")?);
        }
        let mut max_abs = Vec::with_capacity(channels);
        for _ in 0..channels {
            max_abs.push(r.f32("stats max")?);
        }
        per_layer.push(LayerActivation { mean_abs, max_abs });
    }
    let stats = ActivationStats { per_layer };

    let model_len = r.u32("model length")? as usize;
    let model_bytes = r.take(model_len, "model bytes")?;
    // A vault must embed an artifact of its own format generation; a
    // mismatch means the vault was spliced or mis-migrated.
    let inner = artifact_version(model_bytes)?;
    if inner != version {
        return Err(CodecError::MixedVersion {
            outer: version,
            inner,
        });
    }
    let original = decode_model(model_bytes)?;
    if stats.layer_count() != original.layer_count() {
        return Err(r.corrupt(format!(
            "stats cover {} layers, model has {}",
            stats.layer_count(),
            original.layer_count()
        )));
    }
    Ok(OwnerSecrets {
        original,
        stats,
        signature,
        config,
    })
}

const FLEET_MAGIC: &[u8; 4] = b"EMFB";

/// A provisioned fleet loaded from a bundle: the fingerprint parameters
/// plus every device's registry entry and v2 artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetBundle {
    /// Fingerprint parameters the fleet was provisioned with.
    pub fingerprint_config: WatermarkConfig,
    /// Registry entry + artifact per device, in provisioning order.
    pub devices: Vec<ProvisionedDevice>,
}

/// Serializes a provisioned fleet in bulk: one vault file holding the
/// fingerprint parameters, every registry entry, and every device
/// artifact — the single-file counterpart of `fleet-provision`'s
/// directory of `.emqm` files plus `fleet.emfr`. Implemented over the
/// streaming [`FleetBundleWriter`] writing into a `Vec`, so the
/// buffered and streaming encoders cannot drift.
///
/// The bundle version tracks the deploy-codec version of the embedded
/// artifacts, like the secrets vault.
///
/// # Panics
///
/// Panics if a device artifact exceeds the u32 length field (4 GiB) —
/// truncating it silently would corrupt every subsequent entry.
pub fn encode_fleet_bundle(
    fingerprint_config: &WatermarkConfig,
    devices: &[ProvisionedDevice],
) -> Bytes {
    let payload: usize = devices.iter().map(|d| d.artifact.len() + 64).sum();
    let mut out = Vec::with_capacity(64 + payload);
    let mut w = FleetBundleWriter::new(&mut out, fingerprint_config, devices.len())
        .expect("writing a bundle header to a Vec cannot fail");
    for d in devices {
        w.append(&d.fingerprint, &d.artifact)
            .expect("device artifact exceeds the bundle's u32 length field");
    }
    w.finish().expect("every declared device was appended");
    Bytes::from(out)
}

/// The streaming EMFB encoder: writes the bundle header up front, then
/// accepts one device at a time — either a resident artifact buffer
/// ([`Self::append`]) or a callback that streams the artifact bytes
/// straight into the output ([`Self::append_streamed`], which fleet
/// provisioning uses to splice delta-patched artifacts in flight).
/// Nothing but the entry currently being written is ever resident.
///
/// Byte-identical to [`encode_fleet_bundle`] by construction (that
/// function is this writer over a `Vec`).
#[derive(Debug)]
pub struct FleetBundleWriter<W: Write> {
    w: W,
    expected: usize,
    appended: usize,
}

impl<W: Write> FleetBundleWriter<W> {
    /// Writes the bundle header (magic, version, fingerprint
    /// parameters, device count). The count is part of the header, so
    /// the fleet size must be known up front; [`Self::finish`] verifies
    /// it was honored.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn new(
        mut w: W,
        fingerprint_config: &WatermarkConfig,
        device_count: usize,
    ) -> Result<Self, StoreError> {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_slice(FLEET_MAGIC);
        buf.put_u32_le(VERSION);
        put_watermark_config(&mut buf, fingerprint_config);
        buf.put_u32_le(device_count as u32);
        w.write_all(&buf).map_err(|e| StoreError::Io {
            what: "writing the bundle header",
            source: e,
        })?;
        Ok(Self {
            w,
            expected: device_count,
            appended: 0,
        })
    }

    /// Appends one device entry with a resident artifact buffer.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, on appending more devices than declared, or
    /// on an artifact exceeding the u32 length field.
    pub fn append(
        &mut self,
        fingerprint: &DeviceFingerprint,
        artifact: &[u8],
    ) -> Result<(), StoreError> {
        self.append_streamed(fingerprint, artifact.len(), |out| {
            out.write_all(artifact).map_err(|e| StoreError::Io {
                what: "writing an artifact into the bundle",
                source: e,
            })
        })
    }

    /// Appends one device entry whose `artifact_len` bytes are produced
    /// by `fill` writing directly into the bundle output — the
    /// constant-memory path (fleet provisioning splices the device's
    /// delta patches into the base artifact here, never materializing
    /// the device artifact). `fill` must write exactly `artifact_len`
    /// bytes; the writer counts and refuses a short or long entry,
    /// which would corrupt every subsequent one.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, over-appending, u32 overflow, or a `fill`
    /// that wrote the wrong number of bytes.
    pub fn append_streamed(
        &mut self,
        fingerprint: &DeviceFingerprint,
        artifact_len: usize,
        fill: impl FnOnce(&mut dyn Write) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let corrupt = |msg: String| {
            StoreError::Codec(CodecError::Corrupt {
                section: Section::Device(self.appended),
                offset: 0,
                msg,
            })
        };
        if self.appended == self.expected {
            return Err(corrupt(format!(
                "bundle declared {} devices; cannot append another",
                self.expected
            )));
        }
        let len_word = u32::try_from(artifact_len)
            .map_err(|_| corrupt("device artifact exceeds the bundle's u32 length field".into()))?;
        let mut head = BytesMut::with_capacity(32 + fingerprint.device_id.len());
        head.put_u32_le(fingerprint.device_id.len() as u32);
        head.put_slice(fingerprint.device_id.as_bytes());
        head.put_u64_le(fingerprint.selection_seed);
        head.put_u64_le(fingerprint.signature_seed);
        head.put_u32_le(len_word);
        self.w.write_all(&head).map_err(|e| StoreError::Io {
            what: "writing a bundle entry header",
            source: e,
        })?;
        let mut counting = CountingWriter {
            inner: &mut self.w,
            written: 0,
        };
        fill(&mut counting)?;
        let written = counting.written;
        if written != artifact_len as u64 {
            return Err(corrupt(format!(
                "entry promised {artifact_len} artifact bytes but {written} were written"
            )));
        }
        self.appended += 1;
        Ok(())
    }

    /// Seals the bundle, verifying every declared device arrived, and
    /// returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Fails if devices are missing or the final flush errors.
    pub fn finish(mut self) -> Result<W, StoreError> {
        if self.appended != self.expected {
            return Err(StoreError::Codec(CodecError::Corrupt {
                section: Section::Bundle,
                offset: 0,
                msg: format!(
                    "bundle declared {} devices but {} were appended",
                    self.expected, self.appended
                ),
            }));
        }
        self.w.flush().map_err(|e| StoreError::Io {
            what: "flushing the bundle",
            source: e,
        })?;
        Ok(self.w)
    }
}

struct CountingWriter<W: Write> {
    inner: W,
    written: u64,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Fixed byte length of the bundle header: magic, version, fingerprint
/// config, device count.
const BUNDLE_HEADER_BYTES: usize = 4 + 4 + 32 + 4;
/// Fixed bytes of a device entry besides its id string and artifact:
/// id length word, two seeds, artifact length word.
const BUNDLE_ENTRY_FIXED_BYTES: usize = 4 + 8 + 8 + 4;

/// The streaming EMFB decoder: reads the header eagerly, then yields
/// one [`ProvisionedDevice`] per `next()` with only that device's
/// artifact resident — fleet-scale verification walks a bundle of any
/// size at O(largest artifact) memory. Errors carry the same
/// [`Section`] + byte-offset context as the deploy codec
/// ([`Section::Device`] names the failing entry).
///
/// The iterator is fused on error: after a failure, `next()` returns
/// `None` (a broken length word makes everything after it garbage).
#[derive(Debug)]
pub struct FleetBundleStream<R: Read> {
    src: R,
    offset: usize,
    fingerprint_config: WatermarkConfig,
    declared: usize,
    yielded: usize,
    failed: bool,
}

impl<R: Read> FleetBundleStream<R> {
    /// Opens a bundle stream, reading and validating the header.
    ///
    /// # Errors
    ///
    /// Returns the usual codec errors for a malformed header, wrapped
    /// I/O errors from the backing reader.
    pub fn open(mut src: R) -> Result<Self, StoreError> {
        // Read whatever prefix of the fixed-size header exists and let
        // the positioned Reader assign the error (bad magic before
        // truncation, matching the buffered decoder's precedence).
        let mut buf = [0u8; BUNDLE_HEADER_BYTES];
        let mut filled = 0usize;
        while filled < buf.len() {
            let n = src.read(&mut buf[filled..]).map_err(|e| StoreError::Io {
                what: "reading the bundle header",
                source: e,
            })?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        let mut r = Reader::new(&buf[..filled], Section::Bundle);
        r.magic(FLEET_MAGIC)?;
        let fingerprint_config = read_config_header(&mut r, VERSION)?;
        let declared = r.u32("device count")? as usize;
        Ok(Self {
            src,
            offset: BUNDLE_HEADER_BYTES,
            fingerprint_config,
            declared,
            yielded: 0,
            failed: false,
        })
    }

    /// The fingerprint parameters the fleet was provisioned with.
    pub fn fingerprint_config(&self) -> &WatermarkConfig {
        &self.fingerprint_config
    }

    /// Number of device entries the header declares.
    pub fn device_count(&self) -> usize {
        self.declared
    }

    fn read_entry(&mut self) -> Result<ProvisionedDevice, StoreError> {
        let i = self.yielded;
        let section = Section::Device(i);
        let mut fixed = [0u8; BUNDLE_ENTRY_FIXED_BYTES];
        read_exact_at(
            &mut self.src,
            &mut fixed[..4],
            section,
            "device id length",
            self.offset,
        )?;
        let id_len = u32::from_le_bytes(fixed[..4].try_into().expect("4 bytes")) as usize;
        let id_bytes =
            read_len_prefixed(&mut self.src, id_len, section, "device id", self.offset + 4)?;
        let device_id = String::from_utf8(id_bytes).map_err(|_| {
            StoreError::Codec(CodecError::Corrupt {
                section,
                offset: self.offset + 4,
                msg: "device id: invalid utf-8".into(),
            })
        })?;
        read_exact_at(
            &mut self.src,
            &mut fixed[4..],
            section,
            "device seeds and artifact length",
            self.offset + 4 + id_len,
        )?;
        let selection_seed = u64::from_le_bytes(fixed[4..12].try_into().expect("8 bytes"));
        let signature_seed = u64::from_le_bytes(fixed[12..20].try_into().expect("8 bytes"));
        let artifact_len = u32::from_le_bytes(fixed[20..24].try_into().expect("4 bytes")) as usize;
        let artifact_start = self.offset + BUNDLE_ENTRY_FIXED_BYTES + id_len;
        let artifact = read_len_prefixed(
            &mut self.src,
            artifact_len,
            section,
            "artifact bytes",
            artifact_start,
        )?;
        let inner = artifact_version(&artifact)?;
        if inner != VERSION {
            return Err(CodecError::MixedVersion {
                outer: VERSION,
                inner,
            }
            .into());
        }
        self.offset = artifact_start + artifact_len;
        self.yielded += 1;
        Ok(ProvisionedDevice {
            fingerprint: DeviceFingerprint {
                device_id,
                selection_seed,
                signature_seed,
            },
            artifact,
        })
    }
}

impl<R: Read> Iterator for FleetBundleStream<R> {
    type Item = Result<ProvisionedDevice, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.yielded == self.declared {
            return None;
        }
        let entry = self.read_entry();
        if entry.is_err() {
            self.failed = true;
        }
        Some(entry)
    }
}

/// Reads `len` bytes declared by an untrusted wire length word. The
/// buffer grows with the bytes actually read (`Read::take` +
/// `read_to_end`), never pre-allocating the declared length — a
/// 60-byte bundle claiming a 4 GiB artifact fails with a positioned
/// [`CodecError::Truncated`], not an OOM.
fn read_len_prefixed<R: Read>(
    src: &mut R,
    len: usize,
    section: Section,
    what: &'static str,
    offset: usize,
) -> Result<Vec<u8>, StoreError> {
    let mut buf = Vec::new();
    (&mut *src)
        .take(len as u64)
        .read_to_end(&mut buf)
        .map_err(|e| StoreError::Io {
            what: "reading a fleet bundle",
            source: e,
        })?;
    if buf.len() != len {
        return Err(StoreError::Codec(CodecError::Truncated {
            section,
            what,
            offset: offset + buf.len(),
        }));
    }
    Ok(buf)
}

/// `read_exact` with codec-style error context: short input becomes
/// [`CodecError::Truncated`] naming the section, field, and absolute
/// byte offset; other I/O failures wrap as [`StoreError::Io`].
fn read_exact_at<R: Read>(
    src: &mut R,
    buf: &mut [u8],
    section: Section,
    what: &'static str,
    offset: usize,
) -> Result<(), StoreError> {
    src.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StoreError::Codec(CodecError::Truncated {
                section,
                what,
                offset,
            })
        } else {
            StoreError::Io {
                what: "reading a fleet bundle",
                source: e,
            }
        }
    })
}

/// Deserializes a provisioned-fleet bundle written by
/// [`encode_fleet_bundle`]. Implemented over [`FleetBundleStream`]
/// (materializing every entry), so the buffered and streaming decoders
/// agree byte for byte.
///
/// # Errors
///
/// Returns a [`CodecError`] on malformed input, including
/// [`CodecError::MixedVersion`] when an embedded artifact's format
/// version disagrees with the bundle's.
pub fn decode_fleet_bundle(bytes: &[u8]) -> Result<FleetBundle, CodecError> {
    // On an in-memory slice the only I/O failure is a short read, which
    // the stream already reports as a positioned `Truncated`.
    let demote = |e: StoreError| match e {
        StoreError::Codec(c) => c,
        other => CodecError::Corrupt {
            section: Section::Bundle,
            offset: 0,
            msg: other.to_string(),
        },
    };
    let mut stream = FleetBundleStream::open(bytes).map_err(demote)?;
    let fingerprint_config = *stream.fingerprint_config();
    let mut devices = Vec::new();
    for entry in &mut stream {
        devices.push(entry.map_err(demote)?);
    }
    Ok(FleetBundle {
        fingerprint_config,
        devices,
    })
}

/// The byte offsets where a bundle's sections begin (header fields,
/// each device entry, each embedded artifact) plus the total length —
/// the boundaries a truncation test must cut at, and the map
/// `emmark inspect` prints for bundles.
///
/// # Errors
///
/// Propagates codec errors from walking a malformed bundle.
pub fn bundle_section_boundaries(bytes: &[u8]) -> Result<Vec<usize>, CodecError> {
    let mut r = Reader::new(bytes, Section::Bundle);
    r.magic(FLEET_MAGIC)?;
    let mut boundaries = vec![0, 4, 8];
    let _ = read_config_header(&mut r, VERSION)?;
    boundaries.push(r.offset());
    let count = r.u32("device count")? as usize;
    boundaries.push(r.offset());
    for i in 0..count {
        let _ = read_device_entry(&mut r, i)?;
        let artifact_len = r.u32("artifact length")? as usize;
        boundaries.push(r.offset());
        r.take(artifact_len, "artifact bytes")?;
        boundaries.push(r.offset());
    }
    boundaries.sort_unstable();
    boundaries.dedup();
    Ok(boundaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watermark::WatermarkConfig;
    use emmark_nanolm::config::ModelConfig;
    use emmark_nanolm::TransformerModel;
    use emmark_quant::awq::{awq, AwqConfig};

    fn secrets() -> OwnerSecrets {
        let mut model = TransformerModel::new(ModelConfig::tiny_test());
        let calib = vec![vec![1u32, 2, 3, 4, 5, 6, 7, 8]];
        let stats = model.collect_activation_stats(&calib);
        let qm = awq(&model, &stats, &AwqConfig::default());
        let cfg = WatermarkConfig {
            bits_per_layer: 4,
            pool_ratio: 10,
            ..Default::default()
        };
        OwnerSecrets::new(qm, stats, cfg, 0x5EC2)
    }

    #[test]
    fn vault_roundtrip_preserves_proof_power() {
        let original = secrets();
        let deployed = original.watermark_for_deployment().expect("insert");
        let bytes = encode_secrets(&original);
        let restored = decode_secrets(&bytes).expect("decode");
        // The restored secrets prove ownership of the deployed model
        // exactly as the originals did.
        let report = restored.verify(&deployed).expect("verify");
        assert_eq!(report.wer(), 100.0);
        assert_eq!(restored.signature, original.signature);
        assert_eq!(restored.config, original.config);
        assert_eq!(restored.stats, original.stats);
        assert!(restored.original.same_weights(&original.original));
    }

    #[test]
    fn mixed_version_vault_is_rejected_with_a_clear_error() {
        let original = secrets();
        // A v2 vault whose embedded model carries a version-1 header —
        // the splice a buggy downgrade tool would produce.
        let mut spliced = encode_secrets(&original).to_vec();
        let model_start = spliced.len() - encode_model(&original.original).len();
        spliced[model_start + 4..model_start + 8].copy_from_slice(&1u32.to_le_bytes());
        let err = decode_secrets(&spliced).expect_err("mixed vault must fail");
        assert_eq!(
            err,
            CodecError::MixedVersion {
                outer: FORMAT_V2,
                inner: 1
            }
        );
        assert!(err.to_string().contains("mixed-version"), "{err}");
    }

    #[test]
    fn vault_rejects_garbage() {
        assert!(matches!(
            decode_secrets(b"EMQM1234"),
            Err(CodecError::BadMagic)
        ));
        assert!(matches!(
            decode_secrets(b"EM"),
            Err(CodecError::Truncated { .. })
        ));
        let bytes = encode_secrets(&secrets());
        for cut in [10usize, 40, bytes.len() / 2, bytes.len() - 5] {
            assert!(
                decode_secrets(&bytes[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }

    #[test]
    fn vault_rejects_corrupted_signature_bits() {
        let bytes = encode_secrets(&secrets()).to_vec();
        // Signature bits start after magic(4)+version(4)+config(32)+len(4).
        let mut corrupted = bytes.clone();
        corrupted[4 + 4 + 32 + 4] = 3; // not ±1
        assert!(matches!(
            decode_secrets(&corrupted),
            Err(CodecError::Corrupt { .. })
        ));
    }

    fn provisioned_fleet() -> (WatermarkConfig, Vec<ProvisionedDevice>) {
        let fp_cfg = WatermarkConfig {
            bits_per_layer: 3,
            pool_ratio: 10,
            selection_seed: 0xDE11CE,
            ..Default::default()
        };
        let provisioner =
            crate::provision::FleetProvisioner::new(secrets(), fp_cfg).expect("cache");
        let devices = provisioner.provision_batch(&["edge-00", "edge-01"], None);
        (fp_cfg, devices)
    }

    #[test]
    fn fleet_bundle_roundtrips_bit_exactly() {
        let (fp_cfg, devices) = provisioned_fleet();
        let bytes = encode_fleet_bundle(&fp_cfg, &devices);
        let bundle = decode_fleet_bundle(&bytes).expect("decode");
        assert_eq!(bundle.fingerprint_config, fp_cfg);
        assert_eq!(bundle.devices, devices);
        // Every embedded artifact still decodes to a model.
        for d in &bundle.devices {
            assert!(decode_model(&d.artifact).is_ok());
        }
    }

    #[test]
    fn fleet_bundle_rejects_garbage_truncation_and_mixed_versions() {
        let (fp_cfg, devices) = provisioned_fleet();
        assert!(matches!(
            decode_fleet_bundle(b"EMWS1234"),
            Err(CodecError::BadMagic)
        ));
        let bytes = encode_fleet_bundle(&fp_cfg, &devices).to_vec();
        for cut in [6usize, 40, bytes.len() / 2, bytes.len() - 5] {
            assert!(
                decode_fleet_bundle(&bytes[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
        // Give the first slot's artifact a version-1 header.
        let mut spliced_devices = devices.clone();
        spliced_devices[0].artifact[4..8].copy_from_slice(&1u32.to_le_bytes());
        let spliced = encode_fleet_bundle(&fp_cfg, &spliced_devices);
        assert_eq!(
            decode_fleet_bundle(&spliced).expect_err("mixed bundle must fail"),
            CodecError::MixedVersion {
                outer: FORMAT_V2,
                inner: 1
            }
        );
        // An invalid fingerprint config is rejected before any artifact.
        let mut bad_cfg = fp_cfg;
        bad_cfg.pool_ratio = 0;
        assert!(matches!(
            decode_fleet_bundle(&encode_fleet_bundle(&bad_cfg, &devices)),
            Err(CodecError::Corrupt { .. })
        ));
    }

    #[test]
    fn fleet_bundle_with_huge_device_count_is_truncated_not_oom() {
        let (fp_cfg, _) = provisioned_fleet();
        let mut bytes = encode_fleet_bundle(&fp_cfg, &[]).to_vec();
        let len = bytes.len();
        bytes[len - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_fleet_bundle(&bytes),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn unknown_vault_version_is_rejected() {
        let mut bytes = encode_secrets(&secrets()).to_vec();
        bytes[4] = 77;
        assert_eq!(
            decode_secrets(&bytes).unwrap_err(),
            CodecError::BadVersion(77)
        );
    }
}
