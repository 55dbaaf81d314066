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
//!
//! ## `EMWS` v2 layout
//!
//! ```text
//! magic "EMWS" | version u32 (2)
//! WatermarkConfig (α f64, β f64, bits/layer u32, pool ratio u32, d u64)
//! signature:  bit count u32 | bits i8 (±1) × count
//! stats A_f:  layer count u32 | per layer: channels u32
//!             | mean_abs f32 × channels | max_abs f32 × channels
//! model W:    length u32 | v2 EMQM artifact
//! key (optional, the last section; nothing may follow it):
//!             tag "EMLK" | binding u64
//!             | layer count u32 | per layer: cell count u32 | flat u64 × count
//!             | checksum u64
//! ```
//!
//! **The derived key.** L is a pure function of (W, A_f, α, β, d)
//! (DESIGN.md §5, invariant 2), so [`encode_secrets`] derives it once
//! ([`locate_watermark`]) and stores it after the model. Opening a vault
//! ([`crate::fingerprint::Family::open`]) reads the header, the
//! signature and the key, and W only at the cells it probes, through
//! [`SparseArtifact`] on the embedded artifact — no decode, no Eqs. 2–4.
//! A vault written without a key opens the same way, except that its key
//! is derived at open: L is located over that artifact one record at a
//! time, and the binding hashed as [`encode_secrets`] would have hashed
//! it. Recomputing L over a keyed vault is the arbiter's audit
//! ([`audit_key`], `emmark inspect`; invariant 13).
//!
//! The key is bound to what it derives from. `checksum` is the FNV-1a
//! hash of the section from the tag through the last flat index, so a
//! flipped byte anywhere in it fails. `binding` hashes the config,
//! signature and stats bytes (the vault bytes between the version word
//! and the model length), continued over W's q byte at every key cell in
//! key order, so a key spliced onto another vault —
//! other A_f, α, β, d or B, or other W at the key cells — fails too. The
//! manifest's fingerprint pools carry the same binding
//! ([`crate::registry`]). A mismatch is a [`CodecError`], never a
//! verdict.

use crate::deploy::{
    artifact_version, decode_model, encode_model, parse_windowed, put_watermark_config, CodecError,
    Reader, Section, SparseArtifact, FORMAT_V2,
};
use crate::fingerprint::{fxhash, fxhash_extend, CellTable, DeviceFingerprint, Family};
use crate::fleet::{read_config_header, read_device_entry};
use crate::provision::ProvisionedDevice;
use crate::signature::Signature;
use crate::store::StoreError;
use crate::watermark::{
    locate_in_store, locate_layer, locate_watermark, GridSource, Locations, OwnerSecrets,
    WatermarkConfig,
};
use bytes::{BufMut, Bytes, BytesMut};
use emmark_nanolm::model::{ActivationStats, LayerActivation};
use std::borrow::Cow;
use std::fs::File;
use std::io::{Read, Write};
use std::os::unix::fs::FileExt;
use std::sync::Arc;

pub(crate) const VAULT_MAGIC: &[u8; 4] = b"EMWS";
/// Vault version; matches the deploy codec's
/// [`FORMAT_V2`](crate::deploy::FORMAT_V2).
const VERSION: u32 = FORMAT_V2;
/// Tag of the derived-key section.
const KEY_TAG: &[u8; 4] = b"EMLK";
/// Where the binding's head bytes start: after magic and version.
const HEAD_START: usize = 8;

/// Writes the config, signature and stats — the head bytes the key
/// binding hashes.
fn put_head(
    buf: &mut BytesMut,
    config: &WatermarkConfig,
    signature: &Signature,
    stats: &ActivationStats,
) {
    put_watermark_config(buf, config);
    buf.put_u32_le(signature.len() as u32);
    for &b in signature.bits() {
        buf.put_i8(b);
    }
    buf.put_u32_le(stats.per_layer.len() as u32);
    for layer in &stats.per_layer {
        buf.put_u32_le(layer.mean_abs.len() as u32);
        for &v in &layer.mean_abs {
            buf.put_f32_le(v);
        }
        for &v in &layer.max_abs {
            buf.put_f32_le(v);
        }
    }
}

/// Continues `head_hash` over the byte of W at every key cell, in key
/// order.
fn bind_cells(head_hash: u64, locations: &Locations, w: impl Fn(usize, usize) -> i8) -> u64 {
    let mut h = head_hash;
    for (l, layer) in locations.iter().enumerate() {
        for &f in layer {
            h = fxhash_extend(h, &[w(l, f) as u8]);
        }
    }
    h
}

/// Serializes the secret bundle (v2, embedding an indexed v2 model
/// artifact), followed by the derived key: the ownership locations,
/// located once here. Secrets whose locations cannot be derived (a layer
/// too small for its pool) get no key; they fail verification the same
/// way either path.
pub fn encode_secrets(secrets: &OwnerSecrets) -> Bytes {
    let mut buf = BytesMut::with_capacity(1 << 16);
    buf.put_slice(VAULT_MAGIC);
    buf.put_u32_le(VERSION);
    put_head(
        &mut buf,
        &secrets.config,
        &secrets.signature,
        &secrets.stats,
    );
    let head_hash = fxhash(&buf[HEAD_START..]);
    // Original model, embedded via the deploy codec (length-prefixed).
    let model_bytes = encode_model(&secrets.original);
    buf.put_u32_le(model_bytes.len() as u32);
    buf.put_slice(&model_bytes);
    if let Ok(locations) = locate_watermark(&secrets.original, &secrets.stats, &secrets.config) {
        let binding = bind_cells(head_hash, &locations, |l, f| secrets.original.q_at(l, f));
        let start = buf.len();
        buf.put_slice(KEY_TAG);
        buf.put_u64_le(binding);
        buf.put_u32_le(locations.len() as u32);
        for layer in &locations {
            buf.put_u32_le(layer.len() as u32);
            for &f in layer {
                buf.put_u64_le(f as u64);
            }
        }
        let checksum = fxhash(&buf[start..]);
        buf.put_u64_le(checksum);
    }
    buf.freeze()
}

/// The vault fields before the embedded model.
struct Head {
    config: WatermarkConfig,
    signature: Signature,
    stats: ActivationStats,
    /// Length of the embedded model, from its length word.
    model_len: usize,
}

/// Reads magic, version, config, signature, stats and the model length
/// word; the reader is left at the embedded model.
fn read_head(r: &mut Reader) -> Result<Head, CodecError> {
    r.magic(VAULT_MAGIC)?;
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
        r.need(channels.saturating_mul(8), "stats values")?;
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
    Ok(Head {
        config,
        signature,
        stats,
        model_len,
    })
}

/// A vault must embed an artifact of its own format generation; a
/// mismatch means the vault was spliced or mis-migrated.
fn check_model_version(model_prefix: &[u8]) -> Result<(), CodecError> {
    let inner = artifact_version(model_prefix)?;
    if inner != VERSION {
        return Err(CodecError::MixedVersion {
            outer: VERSION,
            inner,
        });
    }
    Ok(())
}

/// Parses the key section — the bytes from its tag to the end of the
/// vault, found at offset `origin`: framing, checksum, and nothing after
/// it. Shape and binding are checked against the model separately.
fn read_key(section: &[u8], origin: usize) -> Result<(u64, Locations), CodecError> {
    let mut r = Reader::at(section, Section::VaultKey, origin);
    let tag = r.take(4, "key tag")?;
    if tag != KEY_TAG {
        return Err(r.corrupt(format!(
            "unknown section tag {tag:02x?} after the embedded model"
        )));
    }
    let binding = r.u64("key binding")?;
    let n_layers = r.u32("key layer count")? as usize;
    r.need(n_layers.saturating_mul(4), "key layers")?;
    let mut locations = Vec::with_capacity(n_layers);
    for _ in 0..n_layers {
        let count = r.u32("key cell count")? as usize;
        r.need(count.saturating_mul(8), "key cells")?;
        let mut layer = Vec::with_capacity(count);
        for _ in 0..count {
            layer.push(usize::try_from(r.u64("key cell")?).unwrap_or(usize::MAX));
        }
        locations.push(layer);
    }
    let covered = r.offset() - origin;
    if r.u64("key checksum")? != fxhash(&section[..covered]) {
        return Err(CodecError::Corrupt {
            section: Section::VaultKey,
            offset: origin,
            msg: "key checksum mismatch (corrupted key)".into(),
        });
    }
    r.finish("key section")?;
    Ok((binding, locations))
}

/// Checks that A_f profiles every input channel of every layer of the
/// model (Eq. 3's scoring reads one activation per row), at the offset
/// where the model ends.
fn check_stats_fit<G: GridSource + ?Sized>(
    stats: &ActivationStats,
    grid: &G,
    offset: usize,
) -> Result<(), CodecError> {
    let n = grid.source_layer_count();
    let msg = if stats.layer_count() != n {
        format!("stats cover {} layers, model has {n}", stats.layer_count())
    } else if let Some(l) =
        (0..n).find(|&l| stats.per_layer[l].mean_abs.len() != grid.layer_dims(l).0)
    {
        format!(
            "stats of layer {l} cover {} channels, the layer has {} inputs",
            stats.per_layer[l].mean_abs.len(),
            grid.layer_dims(l).0
        )
    } else {
        return Ok(());
    };
    Err(CodecError::Corrupt {
        section: Section::Vault,
        offset,
        msg,
    })
}

/// The [`CodecError`] of a key that does not fit its vault.
fn key_mismatch(offset: usize, msg: String) -> CodecError {
    CodecError::Corrupt {
        section: Section::VaultKey,
        offset,
        msg,
    }
}

/// Checks a key's shape against the model's grid: one list of
/// `bits_per_layer` distinct in-grid cells per layer.
fn check_key_shape<G: GridSource + ?Sized>(
    locations: &Locations,
    config: &WatermarkConfig,
    grid: &G,
    offset: usize,
) -> Result<(), CodecError> {
    if locations.len() != grid.source_layer_count() {
        return Err(key_mismatch(
            offset,
            format!(
                "key covers {} layers, the model has {}",
                locations.len(),
                grid.source_layer_count()
            ),
        ));
    }
    for (l, layer) in locations.iter().enumerate() {
        let (in_f, out_f) = grid.layer_dims(l);
        let mut sorted = layer.clone();
        sorted.sort_unstable();
        if layer.len() != config.bits_per_layer
            || sorted.last().is_some_and(|&f| f >= in_f * out_f)
            || sorted.windows(2).any(|p| p[0] == p[1])
        {
            return Err(key_mismatch(
                offset,
                format!(
                    "layer {l}: the key must name {} distinct cells of the {in_f}x{out_f} grid",
                    config.bits_per_layer
                ),
            ));
        }
    }
    Ok(())
}

/// The binding of L: `head_hash` continued over W at its cells — checked
/// against the one a key carries, or derived for a keyless vault.
fn bind_key(
    key_binding: Option<u64>,
    head_hash: u64,
    locations: &Locations,
    w: impl Fn(usize, usize) -> i8,
    offset: usize,
) -> Result<u64, CodecError> {
    let binding = bind_cells(head_hash, locations, w);
    if key_binding.is_some_and(|b| b != binding) {
        return Err(key_mismatch(
            offset,
            "key is bound to another vault (spliced key, or W changed at the key cells)".into(),
        ));
    }
    Ok(binding)
}

/// Deserializes a v2 secret bundle. A derived key, when present, is
/// checked (checksum, shape, binding) against the decoded model and then
/// dropped: the decoded secrets locate themselves.
///
/// # Errors
///
/// Returns a [`CodecError`] on malformed input, including
/// [`CodecError::BadVersion`] for any vault version but v2,
/// [`CodecError::MixedVersion`] when the embedded model's format
/// version disagrees with the vault's, and [`CodecError::Corrupt`] for
/// a key that fails its checks or any byte after the last section.
pub fn decode_secrets(bytes: &[u8]) -> Result<OwnerSecrets, CodecError> {
    let mut r = Reader::new(bytes, Section::Vault);
    let head = read_head(&mut r)?;
    let head_end = r.offset() - 4;
    let model_bytes = r.take(head.model_len, "model bytes")?;
    check_model_version(model_bytes)?;
    let original = decode_model(model_bytes)?;
    let key_start = r.offset();
    check_stats_fit(&head.stats, &original, key_start)?;
    if key_start < bytes.len() {
        let (binding, locations) = read_key(&bytes[key_start..], key_start)?;
        check_key_shape(&locations, &head.config, &original, key_start)?;
        let head_hash = fxhash(&bytes[HEAD_START..head_end]);
        let w = |l, f| original.q_at(l, f);
        bind_key(Some(binding), head_hash, &locations, w, key_start)?;
    }
    Ok(OwnerSecrets {
        original,
        stats: head.stats,
        signature: head.signature,
        config: head.config,
    })
}

/// The arbiter's check of a vault's key (paper §4.1): L recomputed from
/// (W, A_f, α, β, d) next to the key the vault carries.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyAudit {
    /// Quantized layers of the vault's model.
    pub layers: usize,
    /// Length of the signature B.
    pub signature_bits: usize,
    /// The vault's derived key, if it carries one.
    pub key: Option<Locations>,
    /// L recomputed with [`locate_watermark`].
    pub recomputed: Locations,
}

impl KeyAudit {
    /// The audit of an opened vault: L recomputed over its embedded
    /// artifact, one record at a time, next to its key. A keyless
    /// vault's derived key is that recomputation.
    ///
    /// # Errors
    ///
    /// The recomputation's read, decode and location errors.
    pub fn of(family: &Family) -> Result<Self, StoreError> {
        let key = family.is_keyed().then(|| family.locations().clone());
        let recomputed = match &key {
            Some(_) => family.relocate()?,
            None => family.locations().clone(),
        };
        Ok(KeyAudit {
            layers: family.source_layer_count(),
            signature_bits: family.signature_bits(),
            key,
            recomputed,
        })
    }

    /// The first layer where the key and the recomputation differ;
    /// `None` when they agree or the vault carries no key.
    pub fn first_mismatch(&self) -> Option<usize> {
        // Decoding checked the key covers every layer.
        let key = self.key.as_ref()?;
        key.iter().zip(&self.recomputed).position(|(a, b)| a != b)
    }
}

/// Opens a vault as [`Family::open`] does and audits its key
/// ([`KeyAudit::of`]).
///
/// # Errors
///
/// [`Family::open`]'s errors, and the recomputation's read, decode and
/// location errors.
pub fn audit_key(bytes: &[u8]) -> Result<KeyAudit, StoreError> {
    KeyAudit::of(&open_family_bytes(bytes.to_vec())?)
}

/// First window of a vault file's head: config, signature and the
/// stats of a model a few hundred channels wide fit in it.
const HEAD_WINDOW: usize = 64 * 1024;

/// Opens a vault file as a [`Family`] ([`Family::open`]).
pub(crate) fn open_family(file: File) -> Result<Family, StoreError> {
    let io = |what: &'static str| move |source| StoreError::Io { what, source };
    let len = file.metadata().map_err(io("sizing the vault"))?.len() as usize;
    let read = |offset: usize, n: usize, what: &'static str| {
        let mut buf = vec![0u8; n];
        file.read_exact_at(&mut buf, offset as u64)
            .map_err(io(what))?;
        Ok(Cow::Owned(buf))
    };
    open_vault(len, read, |start, len| {
        let file = file.try_clone().map_err(io("opening the vault model"))?;
        SparseArtifact::open_file_at(file, start, len)
    })
}

/// [`Family::open`] over vault bytes already in memory, which the
/// family keeps: the same parse, so the same vaults are accepted and
/// refused with the same errors.
pub(crate) fn open_family_bytes(bytes: Vec<u8>) -> Result<Family, StoreError> {
    let bytes = Arc::new(bytes);
    let read = |offset: usize, n: usize, _| Ok(Cow::Borrowed(&bytes[offset..offset + n]));
    open_vault(bytes.len(), read, |start, len| {
        Ok(SparseArtifact::open_owned(Arc::clone(&bytes), start..start + len)?.counted())
    })
}

/// The one vault parse, over a vault of `len` bytes that `read(offset,
/// n, what)` serves: header, signature, stats and key are read, and W
/// through the embedded artifact `artifact(start, len)` opens. A keyed
/// vault's W is read at the key cells only. A keyless vault's key is
/// derived here: L is located over the artifact one record at a time,
/// and its binding hashed as [`encode_secrets`] hashes it.
fn open_vault<'v>(
    len: usize,
    read: impl Fn(usize, usize, &'static str) -> Result<Cow<'v, [u8]>, StoreError>,
    artifact: impl FnOnce(usize, usize) -> Result<SparseArtifact<'static>, StoreError>,
) -> Result<Family, StoreError> {
    let ((head, model_start), window) = parse_windowed(
        len,
        HEAD_WINDOW,
        |n| read(0, n, "reading the vault head"),
        |prefix| {
            let mut r = Reader::new(prefix, Section::Vault);
            let head = read_head(&mut r)?;
            Ok((head, r.offset()))
        },
    )?;
    let key_start = model_start.saturating_add(head.model_len);
    if key_start > len {
        // Worded as `decode_secrets` words it.
        return Err(CodecError::Truncated {
            section: Section::Vault,
            what: "model bytes",
            offset: model_start,
        }
        .into());
    }
    let head_hash = fxhash(&window[HEAD_START..model_start - 4]);
    check_model_version(&read(
        model_start,
        head.model_len.min(8),
        "reading the vault model",
    )?)?;
    let artifact = artifact(model_start, head.model_len)?;
    check_stats_fit(&head.stats, &artifact, key_start)?;
    let (locations, key_binding) = if key_start == len {
        // The signature is checked first, as `OwnerSecrets::verify` does.
        let (sig, stats, cfg) = (Some(&head.signature), &head.stats, &head.config);
        let derived = locate_in_store(&artifact, stats, cfg, sig, locate_layer, false)?;
        (derived, None)
    } else {
        let key_bytes = read(key_start, len - key_start, "reading the vault key")?;
        let (binding, locations) = read_key(&key_bytes, key_start)?;
        check_key_shape(&locations, &head.config, &artifact, key_start)?;
        (locations, Some(binding))
    };
    // W at the key cells, read once: the binding covers them, and every
    // ownership report reads them.
    let at_key = CellTable::collect(&locations, |l, _, f| artifact.q_cell(l, f));
    artifact.check_reads()?;
    let w = |l, f| at_key.get(l, f).expect("the table holds every key cell");
    let binding = bind_key(key_binding, head_hash, &locations, w, key_start)?;
    // Selection excludes min/max-level cells; a key naming one cannot
    // have been derived from this W.
    for (l, layer) in locations.iter().enumerate() {
        let qmax = artifact.layer_grid(l).qmax() as i16;
        if let Some(f) = layer.iter().find(|&&f| (w(l, f) as i16).abs() >= qmax) {
            return Err(key_mismatch(
                key_start,
                format!("key cell (layer {l}, flat {f}) sits at a min/max level"),
            )
            .into());
        }
    }
    let family = Family::keyed(
        head.config,
        head.signature,
        head.stats,
        locations,
        binding,
        artifact,
        at_key,
    )?;
    Ok(family.keyed_by_vault(key_binding.is_some()))
}

pub(crate) const FLEET_MAGIC: &[u8; 4] = b"EMFB";

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
/// After the last declared entry the source must end: any byte left is
/// a [`CodecError::Corrupt`], yielded in place of a further entry. The
/// iterator is fused after an error or the end: `next()` then returns
/// `None` (a broken length word makes everything after it garbage).
#[derive(Debug)]
pub struct FleetBundleStream<R: Read> {
    src: R,
    offset: usize,
    fingerprint_config: WatermarkConfig,
    declared: usize,
    yielded: usize,
    done: bool,
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
            done: false,
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

    /// Errors unless the source ends after the last declared entry.
    fn check_end(&mut self) -> Result<(), StoreError> {
        match std::io::copy(&mut self.src, &mut std::io::sink()) {
            Ok(0) => Ok(()),
            Ok(n) => Err(CodecError::Corrupt {
                section: Section::Bundle,
                offset: self.offset,
                msg: format!("{n} trailing bytes after the device entries"),
            }
            .into()),
            Err(source) => Err(StoreError::Io {
                what: "reading a fleet bundle",
                source,
            }),
        }
    }
}

impl<R: Read> Iterator for FleetBundleStream<R> {
    type Item = Result<ProvisionedDevice, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if self.yielded == self.declared {
            self.done = true;
            return self.check_end().err().map(Err);
        }
        let entry = self.read_entry();
        self.done = entry.is_err();
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
/// version disagrees with the bundle's, and any byte after the last
/// device entry.
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

    /// Where a vault's embedded model starts.
    fn model_start(vault: &[u8]) -> usize {
        let mut r = Reader::new(vault, Section::Vault);
        read_head(&mut r).expect("head");
        r.offset()
    }

    #[test]
    fn mixed_version_vault_is_rejected_with_a_clear_error() {
        let original = secrets();
        // A v2 vault whose embedded model carries a version-1 header —
        // the splice a buggy downgrade tool would produce.
        let mut spliced = encode_secrets(&original).to_vec();
        let model_start = model_start(&spliced);
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

    /// `vault` followed by a well-formed key section.
    fn with_key(vault: &[u8], binding: u64, key: &Locations) -> Vec<u8> {
        let mut out = BytesMut::new();
        out.put_slice(vault);
        out.put_slice(KEY_TAG);
        out.put_u64_le(binding);
        out.put_u32_le(key.len() as u32);
        for layer in key {
            out.put_u32_le(layer.len() as u32);
            for &f in layer {
                out.put_u64_le(f as u64);
            }
        }
        let checksum = fxhash(&out[vault.len()..]);
        out.put_u64_le(checksum);
        out.to_vec()
    }

    /// Stats that miss an input channel of a layer are refused by both
    /// readers, keyless or keyed (the key bound to those stats), before
    /// anything scores with them.
    #[test]
    fn stats_that_do_not_profile_every_input_are_refused() {
        let secrets = secrets();
        let key =
            locate_watermark(&secrets.original, &secrets.stats, &secrets.config).expect("locate");
        let mut stats = secrets.stats.clone();
        stats.per_layer[0].mean_abs.pop();
        stats.per_layer[0].max_abs.pop();
        let mut keyless = BytesMut::new();
        keyless.put_slice(VAULT_MAGIC);
        keyless.put_u32_le(VERSION);
        put_head(&mut keyless, &secrets.config, &secrets.signature, &stats);
        let binding = bind_cells(fxhash(&keyless[HEAD_START..]), &key, |l, f| {
            secrets.original.q_at(l, f)
        });
        let model = encode_model(&secrets.original);
        keyless.put_u32_le(model.len() as u32);
        keyless.put_slice(&model);
        let keyed = with_key(&keyless, binding, &key);
        let path = std::env::temp_dir().join(format!("emmark-bad-stats-{}", std::process::id()));
        for vault in [&keyless[..], &keyed[..]] {
            let err = decode_secrets(vault).expect_err("decode");
            assert!(err.to_string().contains("stats of layer 0 cover"), "{err}");
            std::fs::write(&path, vault).expect("write");
            let err = Family::open(File::open(&path).expect("open")).expect_err("Family::open");
            assert!(err.to_string().contains("stats of layer 0 cover"), "{err}");
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A key that passes its checksum and binding but is not L — what a
    /// faulty stamping tool could write — decodes, and only the audit
    /// catches it.
    #[test]
    fn audit_flags_a_well_formed_key_that_is_not_the_recomputation() {
        let secrets = secrets();
        let vault = encode_secrets(&secrets).to_vec();
        let model_end = model_start(&vault) + encode_model(&secrets.original).len();
        let mut key =
            locate_watermark(&secrets.original, &secrets.stats, &secrets.config).expect("locate");
        // Swap one cell of layer 2 for another unclamped, unlocated cell.
        let layer = &secrets.original.layers[2];
        key[2][0] = (0..layer.len())
            .find(|&f| !layer.is_clamped_flat(f) && !key[2].contains(&f))
            .expect("a free cell");
        let mut head = BytesMut::new();
        put_head(
            &mut head,
            &secrets.config,
            &secrets.signature,
            &secrets.stats,
        );
        let binding = bind_cells(fxhash(&head), &key, |l, f| secrets.original.q_at(l, f));
        let forged = with_key(&vault[..model_end], binding, &key);

        assert!(decode_secrets(&forged).is_ok(), "well-formed and bound");
        let audit = audit_key(&forged).expect("audit");
        assert_eq!(audit.first_mismatch(), Some(2));
        assert_eq!(audit_key(&vault).expect("audit").first_mismatch(), None);
        assert_eq!(audit_key(&vault[..model_end]).expect("keyless").key, None);
    }
}
