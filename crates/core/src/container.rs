//! One reader per container: which magic selects which reader.
//!
//! `emmark inspect`, `fleet-verify`, `identify-leak` and emmarkd open
//! their inputs here ([`open_container`], and [`open_registry`] over
//! it), so a file one of them accepts the others accept, and a file one
//! refuses the others refuse with the same words. A file is read the one
//! way its kind calls for: an artifact (`EMQM`) is opened file-backed
//! ([`SparseArtifact::open_file`]), a bundle (`EMFB`) is streamed one
//! device artifact at a time, and a vault (`EMWS`), manifest (`EMFM`) or
//! registry (`EMFR`) is read whole, in one exact-size read. Bytes in
//! memory go through the same parse.

use crate::deploy::{SparseArtifact, MAGIC as ARTIFACT_MAGIC};
use crate::fingerprint::{DeviceFingerprint, Family};
use crate::fleet::{decode_registry, REGISTRY_MAGIC};
use crate::provision::ProvisionedDevice;
use crate::registry::{
    decode_manifest, FingerprintPools, LeakIndex, ShardManifest, MANIFEST_MAGIC,
};
use crate::store::StoreError;
use crate::vault::{open_family_bytes, FleetBundleStream, FLEET_MAGIC, VAULT_MAGIC};
use crate::watermark::WatermarkConfig;
use std::borrow::Cow;
use std::fs::File;
use std::io::{BufReader, Read};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

/// Where a container's bytes come from.
#[derive(Debug, Clone, Copy)]
pub enum Input<'a> {
    /// A file, read as its kind calls for.
    Path(&'a Path),
    /// Bytes in memory, borrowed.
    Bytes(&'a [u8]),
}

/// A container [`open_container`] opened.
#[derive(Debug)]
pub enum Container<'a> {
    /// `EMQM`: an artifact, structurally checked.
    Artifact(SparseArtifact<'a>),
    /// `EMWS`: a vault opened as [`Family::open`] opens it; the arbiter's
    /// audit of its key is [`crate::vault::KeyAudit::of`].
    Vault(Family),
    /// `EMFM`: a shard manifest (its shard files are not read).
    Manifest(ShardManifest),
    /// `EMFR`: a flat registry's fingerprint config and devices.
    Registry(WatermarkConfig, Vec<DeviceFingerprint>),
    /// `EMFB`: a bundle's fingerprint config and one row per entry; every
    /// entry was read, its artifact opened, and nothing follows the last.
    Bundle(WatermarkConfig, Vec<BundleDevice>),
}

/// One entry of a walked bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct BundleDevice {
    /// The device's registry entry.
    pub fingerprint: DeviceFingerprint,
    /// Length of the device's artifact.
    pub artifact_bytes: usize,
    /// Quantized layers of that artifact.
    pub layers: usize,
}

/// A fleet's device list, as [`open_registry`] found it.
#[derive(Debug)]
pub struct Registry {
    /// The fingerprint parameters the fleet was provisioned with.
    pub fingerprint_config: WatermarkConfig,
    /// Every registered device, in registration order.
    pub devices: Vec<DeviceFingerprint>,
    /// The manifest's leak index (`EMFM` only).
    pub index: Option<LeakIndex>,
    /// The manifest's fingerprint pools (`EMFM` version 2 only).
    pub pools: Option<FingerprintPools>,
}

/// Why a container was refused, in the words every reader prints.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerError(String);

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ContainerError {}

impl<E: Into<StoreError>> From<E> for ContainerError {
    fn from(e: E) -> Self {
        ContainerError(e.into().to_string())
    }
}

/// The magic at the start of `bytes`.
fn magic(bytes: &[u8]) -> Result<&[u8; 4], ContainerError> {
    let too_short = || ContainerError("input is too short to carry a container magic".into());
    bytes.first_chunk::<4>().ok_or_else(too_short)
}

fn unrecognised(magic: &[u8; 4]) -> ContainerError {
    let magic = String::from_utf8_lossy(magic);
    ContainerError(format!("unrecognised container magic {magic:?}"))
}

/// Opens `path` and reads its first (up to four) bytes, leaving the
/// file's cursor at the start.
fn sniff(path: &Path) -> Result<(File, Vec<u8>), ContainerError> {
    let io = |e| ContainerError(format!("reading {}: {e}", path.display()));
    let file = File::open(path).map_err(io)?;
    let mut head = [0u8; 4];
    let n = file.read_at(&mut head, 0).map_err(io)?;
    Ok((file, head[..n].to_vec()))
}

fn read_whole(path: &Path) -> Result<Cow<'static, [u8]>, ContainerError> {
    std::fs::read(path)
        .map(Cow::Owned)
        .map_err(|e| ContainerError(format!("reading {}: {e}", path.display())))
}

/// Opens any container, its reader chosen by its magic.
///
/// # Errors
///
/// An input too short for a magic or with an unrecognised one, the
/// reader's errors, and a bundle entry whose artifact does not open.
pub fn open_container(input: Input<'_>) -> Result<Container<'_>, ContainerError> {
    let bytes = match input {
        Input::Path(path) => {
            let (file, head) = sniff(path)?;
            match magic(&head)? {
                ARTIFACT_MAGIC => return Ok(Container::Artifact(SparseArtifact::open_file(file)?)),
                FLEET_MAGIC => return walk_bundle(BufReader::new(file)),
                VAULT_MAGIC | MANIFEST_MAGIC | REGISTRY_MAGIC => read_whole(path)?,
                other => return Err(unrecognised(other)),
            }
        }
        Input::Bytes(bytes) => Cow::Borrowed(bytes),
    };
    Ok(match magic(&bytes)? {
        ARTIFACT_MAGIC => Container::Artifact(match bytes {
            Cow::Borrowed(bytes) => SparseArtifact::open(bytes)?,
            Cow::Owned(bytes) => {
                let range = 0..bytes.len();
                SparseArtifact::open_owned(Arc::new(bytes), range)?.counted()
            }
        }),
        VAULT_MAGIC => Container::Vault(open_family_bytes(bytes.into_owned())?),
        MANIFEST_MAGIC => Container::Manifest(decode_manifest(&bytes)?),
        REGISTRY_MAGIC => {
            let (fp_cfg, devices) = decode_registry(&bytes)?;
            Container::Registry(fp_cfg, devices)
        }
        FLEET_MAGIC => walk_bundle(&*bytes)?,
        other => return Err(unrecognised(other)),
    })
}

/// A bundle walked to its end, one artifact resident at a time; every
/// entry's artifact must open.
fn walk_bundle(src: impl Read) -> Result<Container<'static>, ContainerError> {
    let mut stream = FleetBundleStream::open(src)?;
    // The declared count is untrusted input; cap the pre-allocation.
    let mut devices = Vec::with_capacity(stream.device_count().min(1024));
    for entry in &mut stream {
        let ProvisionedDevice {
            fingerprint,
            artifact,
        } = entry?;
        let layers = SparseArtifact::open(&artifact)
            .map_err(|e| {
                let id = &fingerprint.device_id;
                ContainerError(format!("device {id}: embedded artifact: {e}"))
            })?
            .layer_count();
        devices.push(BundleDevice {
            fingerprint,
            artifact_bytes: artifact.len(),
            layers,
        });
    }
    Ok(Container::Bundle(*stream.fingerprint_config(), devices))
}

/// Opens a fleet's device list through [`open_container`]: a flat
/// registry (`EMFR`), a bundle (`EMFB`), or a shard manifest (`EMFM`)
/// with its shards, read from `shard_dir` (one exact-size read each)
/// and checked against it.
///
/// # Errors
///
/// [`open_container`]'s errors, any other container, a manifest without
/// a shard directory, and the shards' errors.
pub fn open_registry(
    input: Input<'_>,
    shard_dir: Option<&Path>,
) -> Result<Registry, ContainerError> {
    let not_a_registry =
        || ContainerError("not a fleet registry (expected EMFR, EMFB, or EMFM)".into());
    let no_shard_dir = || {
        ContainerError(
            "shard manifests must be passed as a path blob so shard files can be resolved \
             relative to the manifest"
                .into(),
        )
    };
    // What cannot be a registry is refused on its magic, before it is
    // opened.
    let head = match input {
        Input::Path(path) => sniff(path)?.1,
        Input::Bytes(bytes) => bytes[..bytes.len().min(4)].to_vec(),
    };
    match magic(&head)? {
        ARTIFACT_MAGIC | VAULT_MAGIC => return Err(not_a_registry()),
        MANIFEST_MAGIC if shard_dir.is_none() => return Err(no_shard_dir()),
        _ => {}
    }
    let flat = |fingerprint_config, devices| Registry {
        fingerprint_config,
        devices,
        index: None,
        pools: None,
    };
    match open_container(input)? {
        Container::Registry(fp_cfg, devices) => Ok(flat(fp_cfg, devices)),
        Container::Bundle(fp_cfg, rows) => Ok(flat(
            fp_cfg,
            rows.into_iter().map(|r| r.fingerprint).collect(),
        )),
        Container::Manifest(manifest) => {
            let dir = shard_dir.ok_or_else(no_shard_dir)?;
            let sharded = manifest.load_shards(|shard| std::fs::read(dir.join(shard)))?;
            let (fingerprint_config, devices, index, pools) = sharded.into_parts();
            Ok(Registry {
                fingerprint_config,
                devices,
                index: Some(index),
                pools,
            })
        }
        Container::Artifact(_) | Container::Vault(_) => Err(not_a_registry()),
    }
}
