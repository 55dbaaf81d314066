//! Compact binary serialization of a [`QuantizedModel`] — the "deployed
//! artifact" of the paper's threat model. The end-user's edge device
//! holds exactly these bytes; ownership proof queries the weights read
//! back from them.
//!
//! The format (**v2**) is *indexed*: the header carries the scheme
//! plus a per-layer offset table (shape, bit width, granularity, record
//! offset, and the absolute offset of the raw integer grid). A
//! [`SparseArtifact`] reader resolves any `(layer, flat_index)` cell in
//! O(1) without materializing a [`QuantizedModel`] — watermark
//! extraction reads a few hundred cells, not the whole model.
//!
//! Artifacts are self-contained: little-endian primitives,
//! length-prefixed buffers, a magic header. Integer grids round-trip
//! bit-exactly (anything less would corrupt watermarks). The retired
//! v1 streaming layout (no index, trailing scheme string) is refused
//! with [`CodecError::BadVersion`] by every reader.

use crate::store::{
    copy_store, materialize, ArtifactSink, LayerRecordMeta, LayerStore, ModelHead, StoreError,
};
use crate::telemetry::{self, Telemetry};
use crate::watermark::{GridSource, WatermarkConfig};
use bytes::{BufMut, Bytes, BytesMut};
use emmark_nanolm::config::{MlpKind, ModelConfig, NormKind, OutlierProfile};
use emmark_nanolm::layers::{Embedding, LayerNorm, Norm, RmsNorm};
use emmark_quant::{ActQuant, Granularity, QuantizedLinear, QuantizedModel};
use emmark_tensor::Matrix;
use std::borrow::Cow;
use std::fs::File;
use std::ops::{Deref, Range};
use std::os::unix::fs::FileExt;
use std::sync::{Arc, OnceLock};

pub(crate) const MAGIC: &[u8; 4] = b"EMQM";

/// The indexed, layer-addressable format — the only one this build
/// reads or writes.
pub const FORMAT_V2: u32 = 2;

/// Bytes of one layer-index entry in the v2 header:
/// `in u32 | out u32 | bits u8 | gran tag u8 | group u32 | record u64 |
/// q u64`.
pub(crate) const INDEX_ENTRY_BYTES: usize = 4 + 4 + 1 + 1 + 4 + 8 + 8;

/// The artifact section a codec error points into — the triage handle
/// for truncated or corrupt inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Magic and version words.
    Header,
    /// Model hyperparameters and the scheme string.
    Config,
    /// The v2 per-layer offset table.
    LayerIndex,
    /// Token/position embedding tables.
    Embeddings,
    /// Per-block and final norms.
    Norms,
    /// The layer records as a whole (stream-level errors of the
    /// layer-at-a-time encoders and decoders).
    Layers,
    /// One quantized layer record (0-based canonical index).
    Layer(usize),
    /// The LLM.int8() outlier block inside a layer record.
    Outliers(usize),
    /// The owner-secrets vault envelope.
    Vault,
    /// The vault's derived-key section (the ownership locations).
    VaultKey,
    /// The fleet device registry.
    Registry,
    /// The provisioned-fleet bundle envelope (header and config).
    Bundle,
    /// One device entry inside a registry or fleet bundle (0-based
    /// registration index).
    Device(usize),
    /// The sharded-registry manifest envelope (header and config).
    Manifest,
    /// One shard entry inside a manifest (0-based shard index).
    Shard(usize),
    /// The manifest's fingerprint-cell inverted index.
    LeakIndex,
    /// The manifest's fingerprint candidate pools.
    Pools,
    /// A framed emmarkd request or response payload.
    Service,
}

impl std::fmt::Display for Section {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Section::Header => write!(f, "header"),
            Section::Config => write!(f, "config"),
            Section::LayerIndex => write!(f, "layer index"),
            Section::Embeddings => write!(f, "embeddings"),
            Section::Norms => write!(f, "norms"),
            Section::Layers => write!(f, "layers"),
            Section::Layer(l) => write!(f, "layer {l}"),
            Section::Outliers(l) => write!(f, "layer {l} outliers"),
            Section::Vault => write!(f, "vault"),
            Section::VaultKey => write!(f, "vault key"),
            Section::Registry => write!(f, "registry"),
            Section::Bundle => write!(f, "fleet bundle"),
            Section::Device(d) => write!(f, "device {d}"),
            Section::Manifest => write!(f, "shard manifest"),
            Section::Shard(s) => write!(f, "shard {s}"),
            Section::LeakIndex => write!(f, "leak index"),
            Section::Pools => write!(f, "fingerprint pools"),
            Section::Service => write!(f, "service frame"),
        }
    }
}

/// Errors of the deploy codec. Every positional variant carries the
/// section being decoded and the byte offset where decoding stopped, so
/// a truncated 40 MiB artifact names the failing layer instead of
/// leaving triage to guesswork.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// Input does not start with the `EMQM` magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// Input ended before a field was complete.
    Truncated {
        /// Section being decoded.
        section: Section,
        /// Field being read.
        what: &'static str,
        /// Byte offset where input ran out.
        offset: usize,
    },
    /// A decoded field failed validation.
    Corrupt {
        /// Section being decoded.
        section: Section,
        /// Byte offset just past the offending field.
        offset: usize,
        /// What was wrong.
        msg: String,
    },
    /// A container embeds an artifact of a different format version
    /// (e.g. a v2 vault holding a v1 model).
    MixedVersion {
        /// The container's format version.
        outer: u32,
        /// The embedded artifact's format version.
        inner: u32,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not an EMQM artifact (bad magic)"),
            CodecError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::Truncated {
                section,
                what,
                offset,
            } => write!(
                f,
                "truncated input at byte {offset} while reading {what} ({section} section)"
            ),
            CodecError::Corrupt {
                section,
                offset,
                msg,
            } => write!(f, "corrupt {section} section near byte {offset}: {msg}"),
            CodecError::MixedVersion { outer, inner } => write!(
                f,
                "mixed-version bundle: container format v{outer} embeds an artifact of \
                 format v{inner}; re-encode the bundle so both versions agree"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

/// Serializes a [`WatermarkConfig`] in the shared wire layout used by
/// the secrets vault and the fleet registry.
pub(crate) fn put_watermark_config(buf: &mut BytesMut, cfg: &WatermarkConfig) {
    buf.put_f64_le(cfg.alpha);
    buf.put_f64_le(cfg.beta);
    buf.put_u32_le(cfg.bits_per_layer as u32);
    buf.put_u32_le(cfg.pool_ratio as u32);
    buf.put_u64_le(cfg.selection_seed);
}

pub(crate) fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

pub(crate) fn put_matrix(buf: &mut BytesMut, m: &Matrix) {
    buf.put_u32_le(m.rows() as u32);
    buf.put_u32_le(m.cols() as u32);
    for &v in m.as_slice() {
        buf.put_f32_le(v);
    }
}

fn put_f32_vec(buf: &mut BytesMut, v: &[f32]) {
    buf.put_u32_le(v.len() as u32);
    for &x in v {
        buf.put_f32_le(x);
    }
}

fn put_opt_f32_vec(buf: &mut BytesMut, v: Option<&[f32]>) {
    match v {
        Some(v) => {
            buf.put_u8(1);
            put_f32_vec(buf, v);
        }
        None => buf.put_u8(0),
    }
}

pub(crate) fn put_norm(buf: &mut BytesMut, norm: &Norm) {
    match norm {
        Norm::Layer(n) => {
            buf.put_u8(0);
            put_matrix(buf, &n.gain.value);
            put_matrix(buf, &n.bias.value);
        }
        Norm::Rms(n) => {
            buf.put_u8(1);
            put_matrix(buf, &n.gain.value);
        }
    }
}

pub(crate) fn granularity_tag(g: Granularity) -> (u8, u32) {
    match g {
        Granularity::PerTensor => (0, 0),
        Granularity::PerOutChannel => (1, 0),
        Granularity::Grouped { group_size } => (2, group_size as u32),
    }
}

fn granularity_from_tag(tag: u8, group: usize) -> Option<Granularity> {
    match tag {
        0 => Some(Granularity::PerTensor),
        1 => Some(Granularity::PerOutChannel),
        2 if group > 0 => Some(Granularity::Grouped { group_size: group }),
        _ => None,
    }
}

/// Number of scale entries a layer of this shape and granularity
/// carries; `None` on overflow. Mirrors `QuantizedLinear::new`.
pub(crate) fn expected_scale_count(in_f: usize, out_f: usize, g: Granularity) -> Option<usize> {
    match g {
        Granularity::PerTensor => Some(1),
        Granularity::PerOutChannel => Some(out_f),
        Granularity::Grouped { group_size } => in_f.div_ceil(group_size).checked_mul(out_f),
    }
}

/// Byte length of the layer-record prefix preceding the raw `i8` grid:
/// the fixed fields, the scale vector, and the grid's own length word.
pub(crate) fn record_prefix_len(n_scales: usize) -> usize {
    4 + 4 + 1 + 1 + 4 + (4 + 4 * n_scales) + 4
}

/// Byte offset of the raw `i8` grid within a layer record written by
/// [`put_qlinear`].
pub(crate) fn q_offset_in_record(l: &QuantizedLinear) -> usize {
    record_prefix_len(l.scales().len())
}

/// Exact byte length of the record [`put_qlinear`] writes for `l`,
/// computed from metadata alone (no serialization). The streaming
/// encoder's sizing sweep uses this to derive the v2 offset table
/// before any grid bytes flow.
pub(crate) fn qlinear_record_len(l: &QuantizedLinear) -> usize {
    let opt_f32_vec = |v: Option<&[f32]>| 1 + v.map_or(0, |v| 4 + 4 * v.len());
    let outlier_weights = 1 + l
        .outlier_weights()
        .map_or(0, |m| 8 + 4 * m.rows() * m.cols());
    record_prefix_len(l.scales().len())
        + l.len()
        + opt_f32_vec(l.input_scale())
        + (4 + 4 * l.outlier_rows().len())
        + outlier_weights
        + opt_f32_vec(l.bias())
        + 1
}

pub(crate) fn put_qlinear(buf: &mut BytesMut, l: &QuantizedLinear) {
    buf.put_u32_le(l.in_features() as u32);
    buf.put_u32_le(l.out_features() as u32);
    buf.put_u8(l.bits());
    let (tag, group) = granularity_tag(l.granularity());
    buf.put_u8(tag);
    buf.put_u32_le(group);
    put_f32_vec(buf, l.scales());
    buf.put_u32_le(l.q_values().len() as u32);
    for &q in l.q_values() {
        buf.put_i8(q);
    }
    put_opt_f32_vec(buf, l.input_scale());
    buf.put_u32_le(l.outlier_rows().len() as u32);
    for &r in l.outlier_rows() {
        buf.put_u32_le(r as u32);
    }
    match l.outlier_weights() {
        Some(m) => {
            buf.put_u8(1);
            put_matrix(buf, m);
        }
        None => buf.put_u8(0),
    }
    put_opt_f32_vec(buf, l.bias());
    buf.put_u8(match l.act_quant() {
        ActQuant::None => 0,
        ActQuant::Int8PerToken => 1,
    });
}

/// Serializes the model-config fields (everything but the scheme
/// string, which follows them in the header).
pub(crate) fn put_config(buf: &mut BytesMut, cfg: &ModelConfig) {
    put_string(buf, &cfg.name);
    buf.put_u32_le(cfg.vocab_size as u32);
    buf.put_u32_le(cfg.d_model as u32);
    buf.put_u32_le(cfg.n_layers as u32);
    buf.put_u32_le(cfg.n_heads as u32);
    buf.put_u32_le(cfg.d_ff as u32);
    buf.put_u32_le(cfg.max_seq as u32);
    buf.put_u8(match cfg.norm {
        NormKind::LayerNorm => 0,
        NormKind::RmsNorm => 1,
    });
    buf.put_u8(match cfg.mlp {
        MlpKind::Gelu => 0,
        MlpKind::GatedSilu => 1,
    });
    match cfg.outliers {
        Some(o) => {
            buf.put_u8(1);
            buf.put_u32_le(o.channels as u32);
            buf.put_f32_le(o.factor);
            buf.put_u64_le(o.seed);
        }
        None => buf.put_u8(0),
    }
    buf.put_u64_le(cfg.init_seed);
}

/// Serializes a quantized model to the deployable byte format
/// (**v2**, indexed): header and config (including the scheme), the
/// per-layer offset table, then embeddings, norms, and layer records at
/// the offsets the table promises.
///
/// Implemented as the streaming [`ArtifactSink`] encoder writing into a
/// `Vec` — the in-memory and streaming write paths are one code path,
/// so their byte-identity holds by construction.
pub fn encode_model(model: &QuantizedModel) -> Bytes {
    let mut out = Vec::with_capacity(1 << 16);
    encode_model_into(model, &mut out).expect("in-memory v2 encode cannot fail");
    Bytes::from(out)
}

/// Streams a model's v2 encoding straight into `out` without ever
/// materializing the artifact: the header and offset table are derived
/// from a metadata sweep, then each layer record flows through one
/// reused scratch buffer. Byte-identical to [`encode_model`].
///
/// # Errors
///
/// Propagates I/O failures from `out`.
pub fn encode_model_into<W: std::io::Write>(
    model: &QuantizedModel,
    out: W,
) -> Result<(), StoreError> {
    copy_store(model, &mut ArtifactSink::new(out))
}

/// Section- and offset-tracking reader shared by the deploy codec, the
/// secrets vault, and the fleet registry: a borrowed cursor over the
/// input (no copy taken). Every error it produces names the section
/// being decoded and the byte offset where decoding stopped.
pub(crate) struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
    section: Section,
    /// Where `data` starts in the enclosing file, for error offsets.
    origin: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8], section: Section) -> Self {
        Self::at(bytes, section, 0)
    }

    /// A reader over `bytes` read from offset `origin` of a larger
    /// input: errors report absolute offsets.
    pub(crate) fn at(bytes: &'a [u8], section: Section, origin: usize) -> Self {
        Self {
            data: bytes,
            pos: 0,
            section,
            origin,
        }
    }

    /// Absolute byte offset of the read cursor.
    pub(crate) fn offset(&self) -> usize {
        self.origin + self.pos
    }

    /// Errors unless every input byte has been consumed: a container's
    /// last section is followed by nothing.
    pub(crate) fn finish(&self, after: &str) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(self.corrupt(format!("{n} trailing bytes after the {after}"))),
        }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Marks the section subsequent errors should blame.
    pub(crate) fn enter(&mut self, section: Section) {
        self.section = section;
    }

    /// A [`CodecError::Corrupt`] at the current position.
    pub(crate) fn corrupt(&self, msg: impl Into<String>) -> CodecError {
        CodecError::Corrupt {
            section: self.section,
            offset: self.offset(),
            msg: msg.into(),
        }
    }

    pub(crate) fn need(&self, n: usize, what: &'static str) -> Result<(), CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                section: self.section,
                what,
                offset: self.offset(),
            });
        }
        Ok(())
    }

    /// Borrows the next `len` bytes and advances past them.
    pub(crate) fn take(&mut self, len: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        self.need(len, what)?;
        let out = &self.data[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    pub(crate) fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn i8(&mut self, what: &'static str) -> Result<i8, CodecError> {
        Ok(self.u8(what)? as i8)
    }

    pub(crate) fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    pub(crate) fn f32(&mut self, what: &'static str) -> Result<f32, CodecError> {
        Ok(f32::from_bits(self.u32(what)?))
    }

    pub(crate) fn f64(&mut self, what: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    pub(crate) fn string(&mut self, what: &'static str) -> Result<String, CodecError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| self.corrupt(format!("{what}: invalid utf-8")))
    }

    /// Reads a [`WatermarkConfig`] in the [`put_watermark_config`]
    /// layout (validation is the caller's concern).
    pub(crate) fn watermark_config(&mut self) -> Result<WatermarkConfig, CodecError> {
        Ok(WatermarkConfig {
            alpha: self.f64("alpha")?,
            beta: self.f64("beta")?,
            bits_per_layer: self.u32("bits per layer")? as usize,
            pool_ratio: self.u32("pool ratio")? as usize,
            selection_seed: self.u64("selection seed")?,
        })
    }

    pub(crate) fn magic(&mut self, expected: &[u8; 4]) -> Result<(), CodecError> {
        if self.take(4, "magic")? != expected {
            return Err(CodecError::BadMagic);
        }
        Ok(())
    }

    fn matrix(&mut self, what: &'static str) -> Result<Matrix, CodecError> {
        let rows = self.u32(what)? as usize;
        let cols = self.u32(what)? as usize;
        let byte_len = rows
            .checked_mul(cols)
            .and_then(|n| n.checked_mul(4))
            .ok_or_else(|| self.corrupt(format!("{what}: {rows}x{cols} overflows")))?;
        let raw = self.take(byte_len, what)?;
        let data = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        Ok(Matrix::from_vec(rows, cols, data))
    }

    fn f32_vec(&mut self, what: &'static str) -> Result<Vec<f32>, CodecError> {
        let len = self.u32(what)? as usize;
        let byte_len = len
            .checked_mul(4)
            .ok_or_else(|| self.corrupt(format!("{what}: length {len} overflows")))?;
        let raw = self.take(byte_len, what)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    fn opt_f32_vec(&mut self, what: &'static str) -> Result<Option<Vec<f32>>, CodecError> {
        if self.u8(what)? == 1 {
            Ok(Some(self.f32_vec(what)?))
        } else {
            Ok(None)
        }
    }

    fn norm(&mut self) -> Result<Norm, CodecError> {
        match self.u8("norm tag")? {
            0 => {
                let gain = self.matrix("layernorm gain")?;
                let bias = self.matrix("layernorm bias")?;
                Ok(Norm::Layer(LayerNorm::from_params(gain, bias)))
            }
            1 => Ok(Norm::Rms(RmsNorm::from_params(
                self.matrix("rmsnorm gain")?,
            ))),
            t => Err(self.corrupt(format!("unknown norm tag {t}"))),
        }
    }

    /// Decodes one layer record; `l` is the canonical layer index used
    /// for error attribution. Every invariant `QuantizedLinear::new`
    /// asserts is checked here first, so corrupt artifacts surface as
    /// [`CodecError::Corrupt`] rather than panics.
    pub(crate) fn qlinear(&mut self, l: usize) -> Result<QuantizedLinear, CodecError> {
        self.enter(Section::Layer(l));
        let in_f = self.u32("layer in")? as usize;
        let out_f = self.u32("layer out")? as usize;
        let bits = self.u8("layer bits")?;
        if bits != 4 && bits != 8 {
            return Err(self.corrupt(format!("unsupported bit width {bits}")));
        }
        let gran_tag = self.u8("granularity tag")?;
        let group = self.u32("group size")? as usize;
        let granularity = granularity_from_tag(gran_tag, group)
            .ok_or_else(|| self.corrupt(format!("unknown granularity tag {gran_tag}")))?;
        let scales = self.f32_vec("scales")?;
        let n_scales = expected_scale_count(in_f, out_f, granularity)
            .ok_or_else(|| self.corrupt("scale count overflows"))?;
        if scales.len() != n_scales {
            return Err(self.corrupt(format!(
                "{} scales do not match the expected {n_scales}",
                scales.len()
            )));
        }
        let q_len = self.u32("q length")? as usize;
        if Some(q_len) != in_f.checked_mul(out_f) {
            return Err(self.corrupt(format!("q length {q_len} does not match {in_f}x{out_f}")));
        }
        let q: Vec<i8> = self
            .take(q_len, "q grid")?
            .iter()
            .map(|&b| b as i8)
            .collect();
        let qmax = ((1i16 << (bits - 1)) - 1) as i8;
        if !q.iter().all(|&v| v >= -qmax - 1 && v <= qmax) {
            return Err(self.corrupt(format!("grid values exceed the {bits}-bit storage range")));
        }
        let input_scale = self.opt_f32_vec("input scale")?;
        if input_scale.as_ref().is_some_and(|s| s.len() != in_f) {
            return Err(self.corrupt("input scale length does not match layer width"));
        }
        self.enter(Section::Outliers(l));
        let n_outliers = self.u32("outlier count")? as usize;
        // Bound the allocation by the bytes actually present (each row
        // is a u32) before trusting the count.
        self.need(n_outliers.saturating_mul(4), "outlier rows")?;
        let mut rows = Vec::with_capacity(n_outliers);
        for _ in 0..n_outliers {
            let row = self.u32("outlier row")? as usize;
            if row >= in_f {
                return Err(self.corrupt(format!("outlier row {row} out of range")));
            }
            rows.push(row);
        }
        let outlier_weights = if self.u8("outlier weights flag")? == 1 {
            let w = self.matrix("outlier weights")?;
            let mut unique = rows.clone();
            unique.sort_unstable();
            unique.dedup();
            if w.shape() != (unique.len(), out_f) {
                return Err(self.corrupt("outlier weights shape does not match rows"));
            }
            Some(w)
        } else {
            None
        };
        self.enter(Section::Layer(l));
        let bias = self.opt_f32_vec("bias")?;
        if bias.as_ref().is_some_and(|b| b.len() != out_f) {
            return Err(self.corrupt("bias length does not match layer width"));
        }
        let act_quant = match self.u8("act quant")? {
            0 => ActQuant::None,
            1 => ActQuant::Int8PerToken,
            t => return Err(self.corrupt(format!("unknown act-quant tag {t}"))),
        };
        let mut layer = QuantizedLinear::new(
            q,
            in_f,
            out_f,
            bits,
            granularity,
            scales,
            input_scale,
            bias,
            act_quant,
        );
        if let Some(w) = outlier_weights {
            layer.set_outliers(rows, w);
        } else if !rows.is_empty() {
            self.enter(Section::Outliers(l));
            return Err(self.corrupt("outlier rows without weights"));
        }
        Ok(layer)
    }

    pub(crate) fn config(&mut self) -> Result<ModelConfig, CodecError> {
        self.enter(Section::Config);
        let name = self.string("model name")?;
        let vocab_size = self.u32("vocab")? as usize;
        let d_model = self.u32("d_model")? as usize;
        let n_layers = self.u32("n_layers")? as usize;
        let n_heads = self.u32("n_heads")? as usize;
        let d_ff = self.u32("d_ff")? as usize;
        let max_seq = self.u32("max_seq")? as usize;
        let norm = match self.u8("norm kind")? {
            0 => NormKind::LayerNorm,
            1 => NormKind::RmsNorm,
            t => return Err(self.corrupt(format!("unknown norm kind {t}"))),
        };
        let mlp = match self.u8("mlp kind")? {
            0 => MlpKind::Gelu,
            1 => MlpKind::GatedSilu,
            t => return Err(self.corrupt(format!("unknown mlp kind {t}"))),
        };
        let outliers = if self.u8("outlier profile flag")? == 1 {
            Some(OutlierProfile {
                channels: self.u32("outlier channels")? as usize,
                factor: self.f32("outlier factor")?,
                seed: self.u64("outlier seed")?,
            })
        } else {
            None
        };
        let init_seed = self.u64("init seed")?;
        let cfg = ModelConfig {
            name,
            vocab_size,
            d_model,
            n_layers,
            n_heads,
            d_ff,
            max_seq,
            norm,
            mlp,
            outliers,
            init_seed,
        };
        cfg.validate().map_err(|msg| self.corrupt(msg))?;
        Ok(cfg)
    }

    pub(crate) fn embeddings(&mut self) -> Result<Embedding, CodecError> {
        self.enter(Section::Embeddings);
        let tok = self.matrix("token table")?;
        let pos = self.matrix("position table")?;
        Ok(Embedding::from_tables(tok, pos))
    }

    pub(crate) fn norms(
        &mut self,
        n_layers: usize,
    ) -> Result<(Vec<(Norm, Norm)>, Norm), CodecError> {
        self.enter(Section::Norms);
        let n_pairs = self.u32("norm pair count")? as usize;
        if n_pairs != n_layers {
            return Err(self.corrupt(format!(
                "norm pair count {n_pairs} does not match n_layers {n_layers}"
            )));
        }
        let mut norm_pairs = Vec::with_capacity(n_pairs);
        for _ in 0..n_pairs {
            norm_pairs.push((self.norm()?, self.norm()?));
        }
        let final_norm = self.norm()?;
        Ok((norm_pairs, final_norm))
    }

    /// The v2 layer index: per-layer shape/bits/granularity plus record
    /// and grid offsets, validated against the artifact's `total_len`
    /// for in-bounds, monotonic layout. The length is explicit because a
    /// file-backed [`SparseArtifact`] parses the index out of a prefix
    /// window while validating extents against the true file size.
    pub(crate) fn layer_index_bounded(
        &mut self,
        expected_layers: usize,
        total_len: usize,
    ) -> Result<Vec<LayerIndexEntry>, CodecError> {
        self.enter(Section::LayerIndex);
        let n = self.u32("layer count")? as usize;
        if n != expected_layers {
            return Err(self.corrupt(format!(
                "layer count {n} does not match config ({expected_layers})"
            )));
        }
        self.need(n.saturating_mul(INDEX_ENTRY_BYTES), "layer index entries")?;
        let mut index = Vec::with_capacity(n);
        // Offsets may never point back into the header, config, or the
        // index itself — the earliest legal record starts where the
        // index ends.
        let mut prev_end = self.offset() + n * INDEX_ENTRY_BYTES;
        for l in 0..n {
            let in_features = self.u32("index in")? as usize;
            let out_features = self.u32("index out")? as usize;
            let bits = self.u8("index bits")?;
            let gran_tag = self.u8("index granularity tag")?;
            let group = self.u32("index group size")? as usize;
            let record_offset = self.u64("index record offset")? as usize;
            let q_offset = self.u64("index q offset")? as usize;
            let granularity = granularity_from_tag(gran_tag, group)
                .ok_or_else(|| self.corrupt(format!("unknown granularity tag {gran_tag}")))?;
            if bits != 4 && bits != 8 {
                return Err(self.corrupt(format!("layer {l}: unsupported bit width {bits}")));
            }
            let cells = in_features
                .checked_mul(out_features)
                .ok_or_else(|| self.corrupt(format!("layer {l}: grid shape overflows")))?;
            let q_end = q_offset
                .checked_add(cells)
                .ok_or_else(|| self.corrupt(format!("layer {l}: q extent overflows")))?;
            if record_offset < prev_end {
                return Err(self.corrupt(format!("layer {l}: offsets are not monotonic")));
            }
            // The grid must sit exactly where the record's own prefix
            // (derivable from this entry) puts it — anything else would
            // let sparse reads serve record metadata as weight cells.
            let prefix = expected_scale_count(in_features, out_features, granularity)
                .map(record_prefix_len)
                .and_then(|p| record_offset.checked_add(p))
                .ok_or_else(|| self.corrupt(format!("layer {l}: record extent overflows")))?;
            if q_offset != prefix {
                return Err(self.corrupt(format!(
                    "layer {l}: grid offset {q_offset} does not match the record layout \
                     (expected {prefix})"
                )));
            }
            if q_end > total_len {
                return Err(self.corrupt(format!(
                    "layer {l}: grid [{q_offset}, {q_end}) exceeds artifact length {total_len}"
                )));
            }
            prev_end = q_end;
            index.push(LayerIndexEntry {
                in_features,
                out_features,
                bits,
                granularity,
                record_offset,
                q_offset,
            });
        }
        Ok(index)
    }
}

/// The v2 prefix — magic, version, config, scheme and layer index —
/// parsed out of `prefix`, with index extents validated against the
/// artifact's true `total_len`. Returns the parsed pieces plus the
/// offset where the body (embeddings) begins. Shared by both
/// [`SparseArtifact`] sources: in-memory and file-backed.
pub(crate) type ParsedHeader = (ModelConfig, String, Vec<LayerIndexEntry>, usize);

pub(crate) fn parse_v2_header(prefix: &[u8], total_len: usize) -> Result<ParsedHeader, CodecError> {
    let mut r = Reader::new(prefix, Section::Header);
    r.magic(MAGIC)?;
    let version = r.u32("version")?;
    if version != FORMAT_V2 {
        return Err(CodecError::BadVersion(version));
    }
    let cfg = r.config()?;
    let scheme = r.string("scheme")?;
    let index = r.layer_index_bounded(cfg.quant_layer_count(), total_len)?;
    Ok((cfg, scheme, index, r.offset()))
}

/// [`parse_v2_header`] over an artifact too large to hold: `read(n)`
/// returns its first `n` bytes. Returns the parse and the last window
/// read.
fn parse_v2_header_windowed<E: From<CodecError>>(
    total_len: usize,
    initial: usize,
    read: impl FnMut(usize) -> Result<Vec<u8>, E>,
) -> Result<(ParsedHeader, Vec<u8>), E> {
    parse_windowed(total_len, initial, read, |prefix| {
        parse_v2_header(prefix, total_len)
    })
}

/// Runs `parse` over a prefix of an input too large to hold: `read(n)`
/// returns its first `n` bytes. Headers have no length prefix, so a
/// window is read and widened until the parse no longer runs out of
/// bytes. Returns the parse and the last window read.
pub(crate) fn parse_windowed<T, B: Deref<Target = [u8]>, E: From<CodecError>>(
    total_len: usize,
    initial: usize,
    mut read: impl FnMut(usize) -> Result<B, E>,
    parse: impl Fn(&[u8]) -> Result<T, CodecError>,
) -> Result<(T, B), E> {
    let mut want = initial.min(total_len);
    loop {
        let prefix = read(want)?;
        match parse(&prefix) {
            Ok(parsed) => return Ok((parsed, prefix)),
            Err(CodecError::Truncated { .. }) if want < total_len => {
                want = want.saturating_mul(2).min(total_len);
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// A byte source the v2 structural walk reads through: borrowed for an
/// in-memory artifact, positioned reads for a file.
trait Fetch {
    /// What a failed fetch reports; codec errors convert into it.
    type Error: From<CodecError>;

    /// Total artifact length in bytes.
    fn total_len(&self) -> usize;

    /// Bytes `[offset, offset + len)`, already bounds-checked against
    /// [`Self::total_len`] by the caller.
    fn fetch(&mut self, offset: usize, len: usize) -> Result<&[u8], Self::Error>;
}

impl Fetch for &[u8] {
    type Error = CodecError;

    fn total_len(&self) -> usize {
        self.len()
    }

    fn fetch(&mut self, offset: usize, len: usize) -> Result<&[u8], CodecError> {
        Ok(&self[offset..offset + len])
    }
}

/// Cursor of the v2 structural walk: absolute offsets, the section being
/// checked, and a [`Fetch`] source. Length words and tags are fetched;
/// grids, scales and embeddings are skipped by their length words and
/// never read.
struct Walk<F> {
    src: F,
    pos: usize,
    section: Section,
}

impl<F: Fetch> Walk<F> {
    fn corrupt(&self, msg: impl Into<String>) -> CodecError {
        CodecError::Corrupt {
            section: self.section,
            offset: self.pos,
            msg: msg.into(),
        }
    }

    fn need(&self, n: usize, what: &'static str) -> Result<(), CodecError> {
        if self.src.total_len() - self.pos < n {
            return Err(CodecError::Truncated {
                section: self.section,
                what,
                offset: self.pos,
            });
        }
        Ok(())
    }

    fn take<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], F::Error> {
        self.need(N, what)?;
        let bytes = self.src.fetch(self.pos, N)?;
        let out = bytes
            .try_into()
            .expect("fetch returns the requested length");
        self.pos += N;
        Ok(out)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, F::Error> {
        Ok(self.take::<1>(what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, F::Error> {
        Ok(u32::from_le_bytes(self.take::<4>(what)?))
    }

    fn skip(&mut self, n: usize, what: &'static str) -> Result<(), CodecError> {
        self.need(n, what)?;
        self.pos += n;
        Ok(())
    }

    /// Skips a matrix, returning its dimensions.
    fn skip_matrix(&mut self, what: &'static str) -> Result<(usize, usize), F::Error> {
        let rows = self.u32(what)? as usize;
        let cols = self.u32(what)? as usize;
        let byte_len = rows
            .checked_mul(cols)
            .and_then(|n| n.checked_mul(4))
            .ok_or_else(|| self.corrupt(format!("{what}: {rows}x{cols} overflows")))?;
        self.skip(byte_len, what)?;
        Ok((rows, cols))
    }

    /// Skips an f32 vector, returning its length.
    fn skip_f32_vec(&mut self, what: &'static str) -> Result<usize, F::Error> {
        let len = self.u32(what)? as usize;
        let byte_len = len
            .checked_mul(4)
            .ok_or_else(|| self.corrupt(format!("{what}: length {len} overflows")))?;
        self.skip(byte_len, what)?;
        Ok(len)
    }

    fn skip_opt_f32_vec(&mut self, what: &'static str) -> Result<Option<usize>, F::Error> {
        if self.u8(what)? == 1 {
            Ok(Some(self.skip_f32_vec(what)?))
        } else {
            Ok(None)
        }
    }

    fn skip_norm(&mut self) -> Result<(), F::Error> {
        match self.u8("norm tag")? {
            0 => {
                self.skip_matrix("layernorm gain")?;
                self.skip_matrix("layernorm bias")?;
                Ok(())
            }
            1 => {
                self.skip_matrix("rmsnorm gain")?;
                Ok(())
            }
            t => Err(self.corrupt(format!("unknown norm tag {t}")).into()),
        }
    }

    /// Structural validation of the v2 body without materializing
    /// anything: walks every length word and tag of the embeddings,
    /// norms, and layer records, checking each record sits where the
    /// index promises and agrees with its entry. Returns the offset where
    /// the last record ends (bytes after it belong to no record). After
    /// this, [`decode_model`] fails only on value-level checks (grid
    /// value ranges) that sparse reads never interpret.
    fn validate_v2_body(
        &mut self,
        cfg: &ModelConfig,
        index: &[LayerIndexEntry],
    ) -> Result<usize, F::Error> {
        self.section = Section::Embeddings;
        self.skip_matrix("token table")?;
        self.skip_matrix("position table")?;
        self.section = Section::Norms;
        let n_pairs = self.u32("norm pair count")? as usize;
        if n_pairs != cfg.n_layers {
            return Err(self
                .corrupt(format!(
                    "norm pair count {n_pairs} does not match n_layers {}",
                    cfg.n_layers
                ))
                .into());
        }
        for _ in 0..n_pairs {
            self.skip_norm()?;
            self.skip_norm()?;
        }
        self.skip_norm()?;
        for (l, entry) in index.iter().enumerate() {
            self.section = Section::Layer(l);
            if self.pos != entry.record_offset {
                return Err(self
                    .corrupt(format!(
                        "record starts at byte {} but the index promises {}",
                        self.pos, entry.record_offset
                    ))
                    .into());
            }
            let in_f = self.u32("layer in")? as usize;
            let out_f = self.u32("layer out")? as usize;
            let bits = self.u8("layer bits")?;
            let gran_tag = self.u8("granularity tag")?;
            let group = self.u32("group size")? as usize;
            let granularity = granularity_from_tag(gran_tag, group)
                .ok_or_else(|| self.corrupt(format!("unknown granularity tag {gran_tag}")))?;
            if in_f != entry.in_features
                || out_f != entry.out_features
                || bits != entry.bits
                || granularity != entry.granularity
            {
                return Err(self
                    .corrupt("record disagrees with its layer-index entry")
                    .into());
            }
            let n_scales = self.skip_f32_vec("scales")?;
            if Some(n_scales) != expected_scale_count(in_f, out_f, granularity) {
                return Err(self
                    .corrupt(format!("{n_scales} scales do not match the layout"))
                    .into());
            }
            let q_len = self.u32("q length")? as usize;
            if q_len != entry.cells() || self.pos != entry.q_offset {
                return Err(self
                    .corrupt("grid does not sit where the index promises")
                    .into());
            }
            self.skip(q_len, "q grid")?;
            let input_scale = self.skip_opt_f32_vec("input scale")?;
            if input_scale.is_some_and(|n| n != in_f) {
                return Err(self
                    .corrupt("input scale length does not match layer width")
                    .into());
            }
            self.section = Section::Outliers(l);
            let n_outliers = self.u32("outlier count")? as usize;
            self.need(n_outliers.saturating_mul(4), "outlier rows")?;
            let mut rows = Vec::with_capacity(n_outliers);
            for _ in 0..n_outliers {
                let row = self.u32("outlier row")? as usize;
                if row >= in_f {
                    return Err(self
                        .corrupt(format!("outlier row {row} out of range"))
                        .into());
                }
                rows.push(row);
            }
            if self.u8("outlier weights flag")? == 1 {
                let shape = self.skip_matrix("outlier weights")?;
                rows.sort_unstable();
                rows.dedup();
                if shape != (rows.len(), out_f) {
                    return Err(self
                        .corrupt("outlier weights shape does not match rows")
                        .into());
                }
            } else if n_outliers > 0 {
                return Err(self.corrupt("outlier rows without weights").into());
            }
            self.section = Section::Layer(l);
            let bias = self.skip_opt_f32_vec("bias")?;
            if bias.is_some_and(|n| n != out_f) {
                return Err(self
                    .corrupt("bias length does not match layer width")
                    .into());
            }
            let act = self.u8("act quant")?;
            if act > 1 {
                return Err(self.corrupt(format!("unknown act-quant tag {act}")).into());
            }
        }
        Ok(self.pos)
    }
}

/// Reads the format version of an EMQM artifact from its header without
/// decoding anything else.
///
/// # Errors
///
/// Returns [`CodecError::BadMagic`] or a header truncation error.
pub fn artifact_version(bytes: &[u8]) -> Result<u32, CodecError> {
    let mut r = Reader::new(&bytes[..bytes.len().min(8)], Section::Header);
    r.magic(MAGIC)?;
    r.u32("version")
}

/// Deserializes a quantized model from the deployable byte format: the
/// structural walk of [`SparseArtifact::open`], then every record
/// decoded ([`materialize`]). It refuses whatever `open` refuses, with
/// the same error, and beyond that only grids whose values exceed their
/// bit width.
///
/// # Errors
///
/// Returns a [`CodecError`] on malformed input —
/// [`CodecError::BadVersion`] for anything but v2 (the retired v1
/// layout included); round-trips of [`encode_model`] output never fail.
pub fn decode_model(bytes: &[u8]) -> Result<QuantizedModel, CodecError> {
    // Not `open`: a full decode is not a sparse read and is not counted
    // as one.
    materialize(&SparseArtifact::open_uncounted(bytes)?).map_err(|e| match e {
        StoreError::Codec(e) => e,
        other => unreachable!("an in-memory artifact decodes without i/o: {other}"),
    })
}

/// One entry of the v2 per-layer offset table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerIndexEntry {
    /// Input feature count.
    pub in_features: usize,
    /// Output feature count.
    pub out_features: usize,
    /// Bit width (4 or 8).
    pub bits: u8,
    /// Scale granularity.
    pub granularity: Granularity,
    /// Absolute byte offset of the full layer record.
    pub record_offset: usize,
    /// Absolute byte offset of the raw `i8` grid (one byte per cell,
    /// row-major `[in, out]`).
    pub q_offset: usize,
}

impl LayerIndexEntry {
    /// Number of weight cells in the grid.
    pub fn cells(&self) -> usize {
        self.in_features * self.out_features
    }
}

/// Random-access view of one layer's integer grid inside a
/// [`SparseArtifact`] — reads cells straight out of the artifact.
#[derive(Debug, Clone, Copy)]
pub struct LayerGridView<'a> {
    source: &'a Source<'a>,
    entry: LayerIndexEntry,
}

impl LayerGridView<'_> {
    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.entry.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.entry.out_features
    }

    /// Bit width (4 or 8).
    pub fn bits(&self) -> u8 {
        self.entry.bits
    }

    /// Number of weight cells.
    pub fn len(&self) -> usize {
        self.entry.cells()
    }

    /// Whether the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.entry.cells() == 0
    }

    /// Integer value at flat index `f` (`row = f / out`, `col = f % out`)
    /// — one byte read, no decoding. A file-backed read that fails
    /// returns 0 and latches the error ([`SparseArtifact::check_reads`]).
    ///
    /// # Panics
    ///
    /// Panics if `f >= self.len()`.
    pub fn q_at_flat(&self, f: usize) -> i8 {
        assert!(f < self.entry.cells(), "flat index {f} out of range");
        if Telemetry::enabled() {
            telemetry::SPARSE_CELLS.incr();
            telemetry::SPARSE_BYTES.incr();
        }
        self.source.cell(self.entry.q_offset + f)
    }

    /// Largest representable magnitude of the grid (`2^{N-1} − 1`).
    pub fn qmax(&self) -> i8 {
        ((1i16 << (self.entry.bits - 1)) - 1) as i8
    }

    /// Whether the cell sits at or beyond the min/max quantization level
    /// (same rule as `QuantizedLinear::is_clamped_flat`).
    pub fn is_clamped_flat(&self, f: usize) -> bool {
        let q = self.q_at_flat(f);
        q >= self.qmax() || q <= -self.qmax()
    }
}

/// Where a [`SparseArtifact`]'s bytes live.
#[derive(Debug, Clone)]
enum Source<'a> {
    /// Borrowed in-memory bytes.
    Slice(&'a [u8]),
    /// The range of an owned buffer, shared by clones: the artifact a
    /// vault read into memory embeds, or a model encoded in memory.
    Owned(Arc<Vec<u8>>, Range<usize>),
    /// A file, read by positioned reads (shared by clones, error latch
    /// included).
    File(Arc<FileSource>),
}

impl Source<'_> {
    fn len(&self) -> usize {
        match self {
            Source::Slice(data) => data.len(),
            Source::Owned(_, range) => range.len(),
            Source::File(file) => file.len,
        }
    }

    /// The byte at `offset`, which the index has placed in bounds.
    fn cell(&self, offset: usize) -> i8 {
        match self {
            Source::Slice(data) => data[offset] as i8,
            Source::Owned(bytes, range) => bytes[range.start + offset] as i8,
            Source::File(file) => file.cell(offset),
        }
    }

    /// Bytes `[start, end)`, which the walk has placed in bounds:
    /// borrowed from a slice, one positioned read from a file.
    fn range(
        &self,
        start: usize,
        end: usize,
        what: &'static str,
    ) -> Result<Cow<'_, [u8]>, StoreError> {
        match self {
            Source::Slice(data) => Ok(Cow::Borrowed(&data[start..end])),
            Source::Owned(bytes, range) => Ok(Cow::Borrowed(&bytes[range.clone()][start..end])),
            Source::File(file) => {
                let mut buf = vec![0u8; end - start];
                file.read_at(start, &mut buf)
                    .map_err(|source| StoreError::Io { what, source })?;
                Ok(Cow::Owned(buf))
            }
        }
    }
}

/// A v2 artifact file behind positioned reads, with the first I/O error
/// any read hits latched.
#[derive(Debug)]
struct FileSource {
    file: File,
    /// Where the artifact starts in the file (non-zero for the artifact
    /// a vault embeds).
    start: usize,
    len: usize,
    error: OnceLock<std::io::Error>,
}

impl FileSource {
    fn read_at(&self, offset: usize, buf: &mut [u8]) -> std::io::Result<()> {
        self.file.read_exact_at(buf, (self.start + offset) as u64)?;
        if Telemetry::enabled() {
            telemetry::SPARSE_FILE_BYTES.add(buf.len() as u64);
        }
        Ok(())
    }

    /// One probed cell. A failed read (the file shrank or the device
    /// failed after open) latches its error and reads as 0; once an
    /// error is latched no further reads are issued.
    fn cell(&self, offset: usize) -> i8 {
        if self.error.get().is_some() {
            return 0;
        }
        let mut byte = [0u8];
        match self.read_at(offset, &mut byte) {
            Ok(()) => byte[0] as i8,
            Err(e) => {
                let _ = self.error.set(e);
                0
            }
        }
    }
}

/// First prefix window a file-backed open reads: the header, config,
/// and a 13-layer index fit in it, and it doubles until the parse fits.
const HEAD_WINDOW: usize = 512;

/// Positioned-read window of the structural walk: one read covers a
/// record's fixed head, or the length words and tags between two
/// skipped payloads.
const WALK_WINDOW: usize = 32;

/// The file-backed [`Fetch`]: serves the walk from one small window,
/// refilled by a positioned read whenever a request leaves it.
struct FileWindow<'s> {
    src: &'s FileSource,
    buf: Vec<u8>,
    start: usize,
}

impl Fetch for FileWindow<'_> {
    type Error = StoreError;

    fn total_len(&self) -> usize {
        self.src.len
    }

    fn fetch(&mut self, offset: usize, len: usize) -> Result<&[u8], StoreError> {
        let end = offset + len;
        if offset < self.start || end > self.start + self.buf.len() {
            let n = len.max(WALK_WINDOW).min(self.src.len - offset);
            self.buf.resize(n, 0);
            self.src
                .read_at(offset, &mut self.buf)
                .map_err(|source| StoreError::Io {
                    what: "reading the artifact body structure",
                    source,
                })?;
            self.start = offset;
        }
        Ok(&self.buf[offset - self.start..end - self.start])
    }
}

/// Indexed reader over a **v2** EMQM artifact: parses the header,
/// config, and per-layer offset table, and walks (without
/// materializing) the body structure. It then serves individual
/// `(layer, flat_index)` cells and layer metadata by direct byte
/// access: opening costs the header plus a length-word walk, and a
/// watermark extraction costs exactly the cells it probes — no float
/// parsing, no grid copies, ever.
///
/// Three sources, one structural walk:
///
/// * [`Self::open`] borrows in-memory bytes (no copy taken);
/// * inside the crate, an owned in-memory buffer is shared instead of
///   borrowed (a vault read into memory, a model encoded in memory);
/// * [`Self::open_file`] reads a file with positioned reads: a prefix
///   window for the header and index, small windows for the length
///   words and tags the walk checks, and one byte per probed cell. The
///   grids, scales, and embeddings are never read, so what it holds is
///   the index plus one window ([`Self::held_bytes`]).
///
/// Cell reads are infallible ([`GridSource::q_at`]), so a file read that
/// fails after open — the file was truncated, the device failed — reads
/// as 0 and *latches* its error. [`Self::check_reads`] reports it; every
/// caller of a file-backed artifact checks it before using a verdict.
///
/// Implements [`GridSource`], so [`crate::watermark::extract_with_locations`]
/// and the fleet engine consume it interchangeably with a fully decoded
/// [`QuantizedModel`], with bit-identical results.
///
/// It is also the [`LayerStore`] over an artifact, and [`decode_model`]
/// is an open followed by [`materialize`]: `load_layer` decodes exactly
/// one record (borrowed from a slice, one positioned read from a file).
/// So the format's layout decisions — where records sit, and how a
/// record is checked against its index entry — live in this one type.
#[derive(Debug, Clone)]
pub struct SparseArtifact<'a> {
    source: Source<'a>,
    cfg: ModelConfig,
    scheme: String,
    index: Vec<LayerIndexEntry>,
    /// Where the embeddings begin (the header, config and index end).
    body_start: usize,
    /// Where the walk ended the last record.
    records_end: usize,
    held: usize,
}

impl<'a> SparseArtifact<'a> {
    /// Opens an in-memory v2 artifact for sparse reads.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::BadVersion`] for v1 (and unknown) formats
    /// and the usual codec errors for malformed headers or an index
    /// whose offsets fall outside the artifact.
    pub fn open(bytes: &'a [u8]) -> Result<Self, CodecError> {
        Ok(Self::open_uncounted(bytes)?.counted())
    }

    /// [`Self::open`] without counting a sparse open.
    fn open_uncounted(bytes: &'a [u8]) -> Result<Self, CodecError> {
        Self::open_memory(bytes, Source::Slice(bytes))
    }

    /// The in-memory open: `bytes` are what `source` serves.
    fn open_memory(bytes: &[u8], source: Source<'a>) -> Result<Self, CodecError> {
        let (cfg, scheme, index, body_start) = parse_v2_header(bytes, bytes.len())?;
        // Walk the body structure (length words, tags, record offsets)
        // without materializing it, so structurally corrupt or
        // truncated artifacts fail here — never at probe time, never
        // silently.
        let records_end = Walk {
            src: bytes,
            pos: body_start,
            section: Section::Embeddings,
        }
        .validate_v2_body(&cfg, &index)?;
        Ok(Self {
            source,
            cfg,
            scheme,
            index,
            body_start,
            records_end,
            held: bytes.len(),
        })
    }

    pub(crate) fn counted(self) -> Self {
        if Telemetry::enabled() {
            telemetry::SPARSE_ARTIFACTS.incr();
            // Opening costs the header, config, and offset table;
            // subsequent cell probes account for themselves.
            telemetry::SPARSE_BYTES.add(self.body_start as u64);
        }
        self
    }

    /// Where record `l` ends: the next record's start, or the walk's end
    /// for the last one.
    fn record_end(&self, l: usize) -> usize {
        self.index
            .get(l + 1)
            .map_or(self.records_end, |e| e.record_offset)
    }

    /// The artifact's format version (always [`FORMAT_V2`]).
    pub fn format_version(&self) -> u32 {
        FORMAT_V2
    }

    /// The model hyperparameters from the header.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The quantization scheme label from the header.
    pub fn scheme(&self) -> &str {
        &self.scheme
    }

    /// Number of quantized layers.
    pub fn layer_count(&self) -> usize {
        self.index.len()
    }

    /// The per-layer offset table.
    pub fn layer_index(&self) -> &[LayerIndexEntry] {
        &self.index
    }

    /// Total artifact size in bytes.
    pub fn byte_len(&self) -> usize {
        self.source.len()
    }

    /// Bytes this reader holds resident: the borrowed input for an
    /// in-memory artifact; for a file, the index plus the largest window
    /// open read through — never the grids.
    pub fn held_bytes(&self) -> usize {
        self.held
    }

    /// The first I/O error a file-backed cell read hit since open, as a
    /// [`StoreError::Io`]; always `Ok` for in-memory artifacts. A
    /// failed read serves 0, so a verdict computed over this artifact
    /// is only valid when this returns `Ok`.
    ///
    /// # Errors
    ///
    /// The latched read error.
    pub fn check_reads(&self) -> Result<(), StoreError> {
        match &self.source {
            Source::File(file) => match file.error.get() {
                Some(e) => Err(StoreError::Io {
                    what: "reading a probed cell",
                    source: std::io::Error::new(e.kind(), e.to_string()),
                }),
                None => Ok(()),
            },
            Source::Slice(_) | Source::Owned(..) => Ok(()),
        }
    }

    /// Every byte of the artifact: a copy of the slice, or one
    /// positioned read of the file.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file read fails (the file shrank
    /// since open, or the device failed).
    pub(crate) fn read_all(&self) -> Result<Vec<u8>, StoreError> {
        Ok(self
            .source
            .range(0, self.byte_len(), "reading the whole artifact")?
            .into_owned())
    }

    /// Random-access view of layer `l`'s integer grid.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn layer_grid(&self, l: usize) -> LayerGridView<'_> {
        LayerGridView {
            source: &self.source,
            entry: self.index[l],
        }
    }

    /// Integer value of cell `(l, f)` — a single byte read.
    ///
    /// # Panics
    ///
    /// Panics if `l` or `f` is out of range.
    pub fn q_cell(&self, l: usize, f: usize) -> i8 {
        self.layer_grid(l).q_at_flat(f)
    }

    /// Cells of layer `l` at or beyond the min/max level (the rule of
    /// [`LayerGridView::is_clamped_flat`]), over one read of its grid.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file read fails.
    pub fn clamped_cells(&self, l: usize) -> Result<usize, StoreError> {
        let (entry, qmax) = (&self.index[l], self.layer_grid(l).qmax());
        let end = entry.q_offset + entry.cells();
        let grid = self
            .source
            .range(entry.q_offset, end, "reading a layer grid")?;
        Ok(grid
            .iter()
            .filter(|&&q| (q as i8).unsigned_abs() >= qmax as u8)
            .count())
    }

    /// The byte offsets where the artifact's sections begin (header,
    /// config, index, each layer record, each grid) plus the total
    /// length — the boundaries a truncation test should cut at, and the
    /// map `emmark inspect` prints.
    pub fn section_boundaries(&self) -> Vec<usize> {
        let mut b = vec![0, 4, 8];
        for entry in &self.index {
            b.push(entry.record_offset);
            b.push(entry.q_offset);
            b.push(entry.q_offset + entry.cells());
        }
        b.push(self.byte_len());
        b.sort_unstable();
        b.dedup();
        b
    }
}

impl LayerStore for SparseArtifact<'_> {
    /// Decodes the embeddings and norms between the body start and the
    /// first record.
    fn head(&self) -> Result<ModelHead, StoreError> {
        let end = self
            .index
            .first()
            .map_or(self.records_end, |e| e.record_offset);
        let bytes = self
            .source
            .range(self.body_start, end, "reading embeddings and norms")?;
        let mut r = Reader::at(&bytes, Section::Embeddings, self.body_start);
        let emb = r.embeddings()?;
        let (norm_pairs, final_norm) = r.norms(self.cfg.n_layers)?;
        Ok(ModelHead {
            cfg: self.cfg.clone(),
            scheme: self.scheme.clone(),
            emb,
            norm_pairs,
            final_norm,
        })
    }

    fn store_layer_count(&self) -> usize {
        self.index.len()
    }

    fn load_layer(&self, l: usize) -> Result<Cow<'_, QuantizedLinear>, StoreError> {
        let entry = &self.index[l];
        let end = self.record_end(l);
        let bytes = self
            .source
            .range(entry.record_offset, end, "reading a layer record")?;
        let mut r = Reader::at(&bytes, Section::Layer(l), entry.record_offset);
        let layer = r.qlinear(l)?;
        // The walk checked the record against its index entry at open; a
        // file rewritten since then is caught here.
        if r.offset() != end
            || layer.in_features() != entry.in_features
            || layer.out_features() != entry.out_features
            || layer.bits() != entry.bits
            || layer.granularity() != entry.granularity
        {
            return Err(r
                .corrupt("record disagrees with its layer-index entry")
                .into());
        }
        Ok(Cow::Owned(layer))
    }

    fn layer_meta(&self, l: usize) -> Result<LayerRecordMeta, StoreError> {
        let entry = &self.index[l];
        Ok(LayerRecordMeta {
            in_features: entry.in_features,
            out_features: entry.out_features,
            bits: entry.bits,
            granularity: entry.granularity,
            record_len: self.record_end(l) - entry.record_offset,
        })
    }
}

impl SparseArtifact<'static> {
    /// Opens a v2 artifact file for sparse reads, without reading it
    /// whole: the header and index come from a prefix window, the
    /// structural walk (the same one [`Self::open`] runs, so the two
    /// accept exactly the same artifacts) reads only the length words
    /// and tags it checks, and each probe later reads one cell.
    ///
    /// # Errors
    ///
    /// The codec errors of [`Self::open`] (offsets absolute, as there),
    /// plus [`StoreError::Io`] when a read fails.
    pub fn open_file(file: File) -> Result<Self, StoreError> {
        let len = file
            .metadata()
            .map_err(|source| StoreError::Io {
                what: "sizing the artifact",
                source,
            })?
            .len() as usize;
        Self::open_file_at(file, 0, len)
    }

    /// [`Self::open_file`] over the `len` bytes at `start` of `file` —
    /// the artifact an owner vault embeds. Offsets in errors and in the
    /// index are relative to `start`, as for the embedded slice.
    pub(crate) fn open_file_at(file: File, start: usize, len: usize) -> Result<Self, StoreError> {
        let src = FileSource {
            file,
            start,
            len,
            error: OnceLock::new(),
        };
        let ((cfg, scheme, index, body_start), prefix) =
            parse_v2_header_windowed(len, HEAD_WINDOW, |n| {
                let mut buf = vec![0u8; n];
                src.read_at(0, &mut buf).map_err(|source| StoreError::Io {
                    what: "reading the artifact header",
                    source,
                })?;
                Ok::<_, StoreError>(buf)
            })?;
        // The walk starts inside the prefix window, which usually also
        // covers the embedding length words.
        let mut walk = Walk {
            src: FileWindow {
                src: &src,
                buf: prefix,
                start: 0,
            },
            pos: body_start,
            section: Section::Embeddings,
        };
        let records_end = walk.validate_v2_body(&cfg, &index)?;
        let held = walk.src.buf.capacity() + std::mem::size_of_val(index.as_slice());
        Ok(Self {
            source: Source::File(Arc::new(src)),
            cfg,
            scheme,
            index,
            body_start,
            records_end,
            held,
        }
        .counted())
    }

    /// [`Self::open`] over the `range` of an owned buffer, which the
    /// reader shares instead of borrowing. Not counted as a sparse open.
    pub(crate) fn open_owned(bytes: Arc<Vec<u8>>, range: Range<usize>) -> Result<Self, CodecError> {
        let shared = Arc::clone(&bytes);
        Self::open_memory(&shared[range.clone()], Source::Owned(bytes, range))
    }
}

/// One grid-cell overwrite in a v2 artifact — the unit of the fleet
/// delta encoder. `flat` indexes the layer's grid row-major
/// (`row = flat / out`, `col = flat % out`), exactly like
/// [`LayerGridView::q_at_flat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellPatch {
    /// Canonical quantized-layer index.
    pub layer: usize,
    /// Flat cell index within the layer's grid.
    pub flat: usize,
    /// The new integer value.
    pub q: i8,
}

/// Emits a copy of a v2 artifact with `patches` applied straight
/// through the layer-offset `index` — the delta-encoding half of fleet
/// provisioning. Each patch is one byte poke at
/// `index[layer].q_offset + flat`; nothing is re-encoded, so deriving a
/// device artifact from the base-watermarked one costs one buffer copy
/// plus O(fingerprint bits), not O(params) float serialization.
///
/// The output is byte-identical to [`encode_model`] run on a model
/// whose grids differ from the base artifact's exactly at `patches` —
/// grid bytes are the only bytes a cell value touches in the v2 layout.
///
/// # Errors
///
/// Returns [`CodecError::Corrupt`] if a patch names a layer or cell
/// outside the index, a value outside the layer's bit-width storage
/// range (the patched artifact must stay decodable), or a grid whose
/// index extent falls outside `base`.
pub fn patch_artifact(
    base: &[u8],
    index: &[LayerIndexEntry],
    patches: &[CellPatch],
) -> Result<Vec<u8>, CodecError> {
    let mut out = base.to_vec();
    for p in patches {
        let offset = check_patch(base.len(), index, p)?;
        out[offset] = p.q as u8;
    }
    Ok(out)
}

/// Validates one [`CellPatch`] against the index and the base artifact
/// length, returning the absolute byte offset it pokes. Shared by the
/// buffered [`patch_artifact`] and the streaming [`splice_patches`], so
/// the two delta encoders cannot drift on what counts as a legal patch.
fn check_patch(
    base_len: usize,
    index: &[LayerIndexEntry],
    p: &CellPatch,
) -> Result<usize, CodecError> {
    let Some(entry) = index.get(p.layer) else {
        return Err(CodecError::Corrupt {
            section: Section::LayerIndex,
            offset: 0,
            msg: format!("patch names layer {} of {}", p.layer, index.len()),
        });
    };
    // The index normally comes from `SparseArtifact::open` on these
    // very bytes, but the parameters are independent — an index
    // inconsistent with `base` must error, not panic.
    if entry
        .q_offset
        .checked_add(entry.cells())
        .is_none_or(|end| end > base_len)
    {
        return Err(CodecError::Corrupt {
            section: Section::Layer(p.layer),
            offset: entry.q_offset,
            msg: format!("grid extent exceeds the {base_len}-byte base artifact"),
        });
    }
    if p.flat >= entry.cells() {
        return Err(CodecError::Corrupt {
            section: Section::Layer(p.layer),
            offset: entry.q_offset,
            msg: format!("patch cell {} exceeds grid size {}", p.flat, entry.cells()),
        });
    }
    let qmax = ((1i16 << (entry.bits - 1)) - 1) as i8;
    if p.q > qmax || p.q < -qmax - 1 {
        return Err(CodecError::Corrupt {
            section: Section::Layer(p.layer),
            offset: entry.q_offset + p.flat,
            msg: format!("patch value {} outside the {}-bit range", p.q, entry.bits),
        });
    }
    Ok(entry.q_offset + p.flat)
}

/// The streaming half of the fleet delta encoder: writes `base` to
/// `out` with `patches` spliced in flight, never materializing the
/// patched artifact. Output bytes equal
/// `patch_artifact(base, index, patches)` exactly (later patches to the
/// same cell win, as in the buffered path); resident memory is
/// O(patches), not O(artifact).
///
/// # Errors
///
/// Returns the same [`CodecError`]s as [`patch_artifact`] for illegal
/// patches, plus I/O failures from `out`.
pub fn splice_patches<W: std::io::Write>(
    base: &[u8],
    index: &[LayerIndexEntry],
    patches: &[CellPatch],
    mut out: W,
) -> Result<(), StoreError> {
    // Validate every patch up front (the buffered path reports errors
    // before writing anything; so must the stream). Sorting by
    // (offset, input rank) makes later patches to the same cell
    // overwrite earlier ones below, matching the buffered path.
    let mut resolved: Vec<(usize, usize)> = Vec::with_capacity(patches.len());
    for (rank, p) in patches.iter().enumerate() {
        resolved.push((check_patch(base.len(), index, p)?, rank));
    }
    resolved.sort_unstable();
    let io = |source| StoreError::Io {
        what: "splicing a patched artifact",
        source,
    };
    // Neighboring patches (fingerprint bits cluster within a layer's
    // grid) are staged into one scratch copy of the spanned region and
    // flushed as a single bulk write instead of a 1-byte write per
    // cell; only gaps wider than COALESCE_GAP break a run. The scratch
    // buffer is reused across runs.
    const COALESCE_GAP: usize = 256;
    let mut scratch: Vec<u8> = Vec::new();
    let mut cursor = 0usize;
    let mut i = 0usize;
    while i < resolved.len() {
        let run_start = resolved[i].0;
        let mut run_end = run_start;
        let mut j = i + 1;
        while j < resolved.len() && resolved[j].0 - run_end <= COALESCE_GAP {
            run_end = resolved[j].0;
            j += 1;
        }
        out.write_all(&base[cursor..run_start]).map_err(io)?;
        scratch.clear();
        scratch.extend_from_slice(&base[run_start..=run_end]);
        for &(offset, rank) in &resolved[i..j] {
            scratch[offset - run_start] = patches[rank].q as u8;
        }
        out.write_all(&scratch).map_err(io)?;
        cursor = run_end + 1;
        i = j;
    }
    out.write_all(&base[cursor..]).map_err(io)?;
    Ok(())
}

impl GridSource for SparseArtifact<'_> {
    fn source_layer_count(&self) -> usize {
        self.index.len()
    }

    fn layer_dims(&self, l: usize) -> (usize, usize) {
        (self.index[l].in_features, self.index[l].out_features)
    }

    fn q_at(&self, l: usize, f: usize) -> i8 {
        self.q_cell(l, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emmark_nanolm::config::ModelConfig as Cfg;
    use emmark_nanolm::model::LogitsModel;
    use emmark_nanolm::TransformerModel;
    use emmark_quant::awq::{awq, AwqConfig};
    use emmark_quant::llm_int8::{llm_int8, OutlierCriterion};
    use emmark_quant::smoothquant::{smoothquant, SmoothQuantConfig};

    fn models_to_roundtrip() -> Vec<QuantizedModel> {
        let mut model = TransformerModel::new(Cfg::tiny_test());
        let calib = vec![vec![1u32, 2, 3, 4, 5, 6, 7, 8]];
        let stats = model.collect_activation_stats(&calib);
        vec![
            awq(&model, &stats, &AwqConfig::default()),
            smoothquant(&model, &stats, &SmoothQuantConfig::default()),
            llm_int8(&model, &stats, OutlierCriterion::Quantile(0.9)),
        ]
    }

    #[test]
    fn roundtrip_is_bit_exact_for_every_scheme() {
        for model in models_to_roundtrip() {
            let bytes = encode_model(&model);
            let back = decode_model(&bytes).expect("decode");
            assert!(
                model.same_weights(&back),
                "{}: integer grids differ",
                model.scheme
            );
            assert_eq!(model.scheme, back.scheme);
            assert_eq!(model.cfg, back.cfg);
            // Behavioral equality: identical logits.
            let tokens = [1u32, 3, 5, 7];
            let a = model.logits(&tokens);
            let b = back.logits(&tokens);
            assert_eq!(a, b, "{}: logits differ after roundtrip", model.scheme);
        }
    }

    #[test]
    fn sparse_reads_match_the_decoded_grid_cell_for_cell() {
        for model in models_to_roundtrip() {
            let bytes = encode_model(&model);
            let sparse = SparseArtifact::open(&bytes).expect("open");
            assert_eq!(sparse.layer_count(), model.layer_count());
            assert_eq!(sparse.scheme(), model.scheme);
            assert_eq!(sparse.config(), &model.cfg);
            for (l, layer) in model.layers.iter().enumerate() {
                let view = sparse.layer_grid(l);
                assert_eq!(view.in_features(), layer.in_features());
                assert_eq!(view.out_features(), layer.out_features());
                assert_eq!(view.bits(), layer.bits());
                for f in 0..layer.len() {
                    assert_eq!(
                        view.q_at_flat(f),
                        layer.q_at_flat(f),
                        "{}: layer {l} cell {f}",
                        model.scheme
                    );
                    assert_eq!(view.is_clamped_flat(f), layer.is_clamped_flat(f));
                }
            }
        }
    }

    #[test]
    fn index_offsets_are_monotonic_and_in_bounds() {
        let model = &models_to_roundtrip()[0];
        let bytes = encode_model(model);
        let sparse = SparseArtifact::open(&bytes).expect("open");
        let mut prev_end = 8usize;
        for entry in sparse.layer_index() {
            assert!(entry.record_offset >= prev_end);
            assert!(entry.q_offset > entry.record_offset);
            prev_end = entry.q_offset + entry.cells();
            assert!(prev_end <= bytes.len());
        }
        let boundaries = sparse.section_boundaries();
        assert!(boundaries.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*boundaries.last().unwrap(), bytes.len());
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert_eq!(decode_model(b"NOPE1234").unwrap_err(), CodecError::BadMagic);
        assert!(matches!(
            decode_model(b"EM"),
            Err(CodecError::Truncated { .. })
        ));
        assert!(matches!(
            SparseArtifact::open(b"EM"),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_version_is_rejected() {
        let model = &models_to_roundtrip()[0];
        let mut bytes = encode_model(model).to_vec();
        bytes[4] = 99; // version low byte
        assert_eq!(
            decode_model(&bytes).unwrap_err(),
            CodecError::BadVersion(99)
        );
        assert_eq!(
            SparseArtifact::open(&bytes).unwrap_err(),
            CodecError::BadVersion(99)
        );
    }

    #[test]
    fn truncated_input_is_rejected_not_panicking() {
        let model = &models_to_roundtrip()[0];
        let bytes = encode_model(model);
        for cut in [9, 64, bytes.len() / 2, bytes.len() - 3] {
            let err = decode_model(&bytes[..cut]).expect_err("truncated");
            assert!(
                matches!(
                    err,
                    CodecError::Truncated { .. } | CodecError::Corrupt { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn codec_errors_carry_section_and_offset() {
        let model = &models_to_roundtrip()[0];
        let bytes = encode_model(model);
        // Truncating mid-header blames the header at the right offset.
        let err = decode_model(&bytes[..6]).unwrap_err();
        match err {
            CodecError::Truncated {
                section,
                what,
                offset,
            } => {
                assert_eq!(section, Section::Header);
                assert_eq!(what, "version");
                assert_eq!(offset, 4);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Truncating inside the first layer record blames that layer.
        let sparse = SparseArtifact::open(&bytes).expect("open");
        let cut = sparse.layer_index()[0].q_offset + 1;
        let err = decode_model(&bytes[..cut]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("layer 0"), "unhelpful error: {msg}");
        assert!(msg.contains("byte"), "no offset in: {msg}");
    }

    #[test]
    fn index_that_lies_about_extents_is_rejected() {
        let model = &models_to_roundtrip()[0];
        let bytes = encode_model(model).to_vec();
        // Locate the first index entry from the (deterministic) header
        // layout: magic+version, config, scheme, layer count.
        let cfg = &model.cfg;
        let cfg_len = (4 + cfg.name.len())
            + 6 * 4
            + 2
            + (1 + if cfg.outliers.is_some() { 16 } else { 0 })
            + 8
            + (4 + model.scheme.len());
        let first_entry = 8 + cfg_len + 4;
        // The entry's final u64 is its q offset; point it past the end.
        let qoff_pos = first_entry + INDEX_ENTRY_BYTES - 8;
        let mut evil = bytes.clone();
        evil[qoff_pos..qoff_pos + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        let err = SparseArtifact::open(&evil).expect_err("must reject");
        assert!(
            matches!(err, CodecError::Corrupt { .. }),
            "lying index must be corrupt, got {err:?}"
        );
        // Sanity: patching the same position back leaves a valid artifact.
        assert!(SparseArtifact::open(&bytes).is_ok());
    }

    #[test]
    fn index_pointing_into_the_header_is_rejected() {
        // An entry aliasing the header/config/index region must fail
        // open(): otherwise sparse reads would serve metadata bytes as
        // weight cells while the full decode errors, breaking the
        // sparse/full equivalence invariant on adversarial inputs.
        let model = &models_to_roundtrip()[0];
        let bytes = encode_model(model).to_vec();
        let cfg = &model.cfg;
        let cfg_len = (4 + cfg.name.len())
            + 6 * 4
            + 2
            + (1 + if cfg.outliers.is_some() { 16 } else { 0 })
            + 8
            + (4 + model.scheme.len());
        let first_entry = 8 + cfg_len + 4;
        let mut evil = bytes.clone();
        // record_offset = 0, q_offset = 8 — both inside the header.
        evil[first_entry + 14..first_entry + 22].copy_from_slice(&0u64.to_le_bytes());
        evil[first_entry + 22..first_entry + 30].copy_from_slice(&8u64.to_le_bytes());
        let err = SparseArtifact::open(&evil).expect_err("must reject");
        assert!(matches!(err, CodecError::Corrupt { .. }), "{err:?}");
        assert!(decode_model(&evil).is_err());
    }

    #[test]
    fn absurd_counts_error_instead_of_aborting_the_allocator() {
        // Corrupt counts (matrix dims here; outlier/stats counts are
        // guarded the same way) must be bounded by the bytes actually
        // present before any allocation trusts them. u32::MAX ×
        // u32::MAX also exercises the checked-multiply overflow path.
        let model = &models_to_roundtrip()[0];
        let bytes = encode_model(model).to_vec();
        // v2 layout: the token-table matrix opens the embeddings, right
        // after the config, the scheme, and the layer index.
        let cfg = &model.cfg;
        let cfg_len = (4 + cfg.name.len())
            + 6 * 4
            + 2
            + (1 + if cfg.outliers.is_some() { 16 } else { 0 })
            + 8
            + (4 + model.scheme.len());
        let tok_rows = 8 + cfg_len + 4 + model.layer_count() * INDEX_ENTRY_BYTES;
        let mut evil = bytes.clone();
        evil[tok_rows..tok_rows + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        evil[tok_rows + 4..tok_rows + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_model(&evil).expect_err("must error, not abort");
        assert!(
            matches!(
                err,
                CodecError::Truncated { .. } | CodecError::Corrupt { .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn patched_artifact_equals_reencoding_the_patched_model() {
        for model in models_to_roundtrip() {
            let bytes = encode_model(&model);
            let sparse = SparseArtifact::open(&bytes).expect("open");
            // Mirror the patches on an in-memory copy, one cell per layer.
            let mut expected = model.clone();
            let patches: Vec<CellPatch> = model
                .layers
                .iter()
                .enumerate()
                .map(|(l, layer)| {
                    let f = layer.len() / 2;
                    let q = if layer.q_at_flat(f) >= layer.qmax() {
                        layer.q_at_flat(f) - 1
                    } else {
                        layer.q_at_flat(f) + 1
                    };
                    expected.layers[l].set_q_flat(f, q);
                    CellPatch {
                        layer: l,
                        flat: f,
                        q,
                    }
                })
                .collect();
            let patched = patch_artifact(&bytes, sparse.layer_index(), &patches).expect("patch");
            assert_eq!(
                patched,
                encode_model(&expected).to_vec(),
                "{}: delta patch must be byte-identical to a re-encode",
                model.scheme
            );
            let decoded = decode_model(&patched).expect("decode");
            assert!(decoded.same_weights(&expected), "{}", model.scheme);
        }
    }

    #[test]
    fn out_of_range_patches_are_rejected() {
        let model = &models_to_roundtrip()[0];
        let bytes = encode_model(model);
        let sparse = SparseArtifact::open(&bytes).expect("open");
        let bad_layer = CellPatch {
            layer: sparse.layer_count(),
            flat: 0,
            q: 1,
        };
        assert!(matches!(
            patch_artifact(&bytes, sparse.layer_index(), &[bad_layer]),
            Err(CodecError::Corrupt { .. })
        ));
        let bad_cell = CellPatch {
            layer: 0,
            flat: sparse.layer_index()[0].cells(),
            q: 1,
        };
        assert!(matches!(
            patch_artifact(&bytes, sparse.layer_index(), &[bad_cell]),
            Err(CodecError::Corrupt { .. })
        ));
        // A value outside the layer's bit width must be refused (the
        // patched artifact would fail decode_model's range check).
        let bits = sparse.layer_index()[0].bits;
        let overflow = CellPatch {
            layer: 0,
            flat: 0,
            q: ((1i16 << (bits - 1)) - 1) as i8,
        };
        let too_big = CellPatch {
            q: overflow.q.saturating_add(1),
            ..overflow
        };
        if bits < 8 {
            assert!(matches!(
                patch_artifact(&bytes, sparse.layer_index(), &[too_big]),
                Err(CodecError::Corrupt { .. })
            ));
        }
        // In-range patches still succeed and decode.
        let ok = patch_artifact(
            &bytes,
            sparse.layer_index(),
            &[CellPatch {
                layer: 0,
                flat: 0,
                q: 1,
            }],
        )
        .expect("patch");
        assert!(decode_model(&ok).is_ok());
        // An index inconsistent with the base bytes (grid extent past
        // the end) must error, not panic.
        let last = *sparse.layer_index().last().expect("layers");
        let truncated = &bytes[..last.q_offset + 1];
        let err = patch_artifact(
            truncated,
            sparse.layer_index(),
            &[CellPatch {
                layer: sparse.layer_count() - 1,
                flat: 1,
                q: 1,
            }],
        )
        .expect_err("must reject");
        assert!(matches!(err, CodecError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn codec_error_messages_are_informative() {
        assert!(CodecError::BadMagic.to_string().contains("magic"));
        let t = CodecError::Truncated {
            section: Section::Layer(3),
            what: "scales",
            offset: 1234,
        };
        assert!(t.to_string().contains("scales"));
        assert!(t.to_string().contains("layer 3"));
        assert!(t.to_string().contains("1234"));
        let m = CodecError::MixedVersion { outer: 2, inner: 1 };
        assert!(m.to_string().contains("v2"));
        assert!(m.to_string().contains("v1"));
    }
}
