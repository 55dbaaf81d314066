//! The unified layer-store abstraction — the write-side dual of
//! [`crate::watermark::GridSource`].
//!
//! The read path went sparse in format v2: extraction probes individual
//! cells of a [`crate::deploy::SparseArtifact`] without materializing a
//! model. This module does the same for the *write* path. A
//! [`LayerStore`] serves a quantized model one layer at a time; a
//! [`LayerSink`] accepts one layer at a time. Every stamp-side stage —
//! Eqs. 2–4 scoring, Eq. 5 insertion, v2 encoding — is a per-layer
//! function between the two, so `score → insert → encode` streams each
//! layer through a bounded set of reused buffers instead of holding the
//! whole model and the whole artifact simultaneously.
//!
//! Stores:
//!
//! * [`QuantizedModel`] — the in-memory store (layers are borrowed, not
//!   copied);
//! * [`crate::deploy::SparseArtifact`] — a v2 EMQM artifact, in memory
//!   or in a file: the header and index are resident, and each layer
//!   record is decoded on demand (borrowed from the slice, or one
//!   positioned read from the file).
//!
//! Sinks:
//!
//! * [`ArtifactSink`] — the streaming v2 encoder behind any
//!   `io::Write`; its output is **byte-identical** to
//!   [`crate::deploy::encode_model`] (which is itself implemented over
//!   this sink);
//! * [`ModelSink`] — materializes a [`QuantizedModel`].
//!
//! The streaming invariants (single-pass stages, bounded buffers,
//! byte-identity with the in-memory pipeline) are documented in
//! DESIGN.md §9 and pinned by `tests/streaming_equivalence.rs`.

use crate::deploy::{
    expected_scale_count, granularity_tag, put_config, put_matrix, put_norm, put_qlinear,
    put_string, q_offset_in_record, qlinear_record_len, record_prefix_len, CodecError, Section,
    FORMAT_V2, INDEX_ENTRY_BYTES, MAGIC,
};
use crate::telemetry::{self, Telemetry};
use crate::watermark::WatermarkError;
use bytes::{BufMut, BytesMut};
use emmark_nanolm::config::ModelConfig;
use emmark_nanolm::layers::{Embedding, Norm};
use emmark_quant::{Granularity, QuantizedLinear, QuantizedModel};
use std::borrow::Cow;
use std::io::Write;

/// Errors of the streaming pipeline: I/O on the backing medium, codec
/// failures decoding a stored layer, or watermarking failures inside a
/// stage.
#[derive(Debug)]
pub enum StoreError {
    /// The backing reader/writer failed.
    Io {
        /// What was being read or written.
        what: &'static str,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// Stored bytes failed to decode (or a sink was fed a layer that
    /// contradicts its declared metadata).
    Codec(CodecError),
    /// A watermarking stage failed.
    Watermark(WatermarkError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { what, source } => write!(f, "i/o failure while {what}: {source}"),
            StoreError::Codec(e) => write!(f, "{e}"),
            StoreError::Watermark(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Codec(e) => Some(e),
            StoreError::Watermark(e) => Some(e),
        }
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

impl From<WatermarkError> for StoreError {
    fn from(e: WatermarkError) -> Self {
        StoreError::Watermark(e)
    }
}

impl StoreError {
    /// Narrows to the watermark error of an operation that does no I/O
    /// and decodes nothing (an engine built over decoded secrets); any
    /// other failure is reported as an invalid configuration.
    pub(crate) fn into_watermark(self) -> WatermarkError {
        match self {
            StoreError::Watermark(e) => e,
            other => WatermarkError::InvalidConfig(other.to_string()),
        }
    }
}

fn io_err(what: &'static str, source: std::io::Error) -> StoreError {
    StoreError::Io { what, source }
}

/// The non-layer payload of a quantized model: hyperparameters, scheme
/// label, embeddings, and norms. Small relative to the layer grids at
/// LLM scale — the one part of a model the streaming pipeline keeps
/// resident.
#[derive(Debug, Clone)]
pub struct ModelHead {
    /// Model hyperparameters.
    pub cfg: ModelConfig,
    /// Quantization scheme label.
    pub scheme: String,
    /// Token/position embedding tables.
    pub emb: Embedding,
    /// Per-block norm pairs.
    pub norm_pairs: Vec<(Norm, Norm)>,
    /// The final norm.
    pub final_norm: Norm,
}

impl ModelHead {
    /// Extracts the head of an in-memory model (clones the small
    /// non-layer payload).
    pub fn of(model: &QuantizedModel) -> Self {
        Self {
            cfg: model.cfg.clone(),
            scheme: model.scheme.clone(),
            emb: model.emb().clone(),
            norm_pairs: model.norm_pairs().to_vec(),
            final_norm: model.final_norm().clone(),
        }
    }
}

/// Everything a sink needs to know about a layer before its grid
/// arrives: shape, quantizer metadata, and the exact byte length of its
/// v2 record. Derivable from a layer without retaining it — the sizing
/// sweep of the streaming encoder materializes one layer at a time and
/// keeps only these few words per layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerRecordMeta {
    /// Input feature count.
    pub in_features: usize,
    /// Output feature count.
    pub out_features: usize,
    /// Bit width (4 or 8).
    pub bits: u8,
    /// Scale granularity.
    pub granularity: Granularity,
    /// Byte length of the layer's v2 record (exactly what
    /// [`crate::deploy::encode_model`] writes for it).
    pub record_len: usize,
}

impl LayerRecordMeta {
    /// The metadata of an in-memory layer.
    pub fn of(layer: &QuantizedLinear) -> Self {
        Self {
            in_features: layer.in_features(),
            out_features: layer.out_features(),
            bits: layer.bits(),
            granularity: layer.granularity(),
            record_len: qlinear_record_len(layer),
        }
    }

    /// Byte offset of the raw `i8` grid within the record, or `None` on
    /// overflow.
    pub fn q_offset_in_record(&self) -> Option<usize> {
        expected_scale_count(self.in_features, self.out_features, self.granularity)
            .map(record_prefix_len)
    }
}

/// Read-side access to a quantized model one layer at a time — the
/// write-path dual of [`crate::watermark::GridSource`]. Implementations
/// promise that `load_layer` materializes at most one layer's worth of
/// data per call; the streaming pipeline holds only the layer currently
/// in flight.
pub trait LayerStore {
    /// The resident non-layer payload.
    ///
    /// # Errors
    ///
    /// Propagates backing-medium failures.
    fn head(&self) -> Result<ModelHead, StoreError>;

    /// Number of quantized layers.
    fn store_layer_count(&self) -> usize;

    /// Materializes layer `l`. In-memory stores return a borrow;
    /// stores over an encoded artifact decode one record.
    ///
    /// # Errors
    ///
    /// Propagates backing-medium and codec failures.
    fn load_layer(&self, l: usize) -> Result<Cow<'_, QuantizedLinear>, StoreError>;

    /// Sizing metadata for layer `l`. The default loads the layer;
    /// indexed stores override with an O(1) table lookup.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::load_layer`] failures.
    fn layer_meta(&self, l: usize) -> Result<LayerRecordMeta, StoreError> {
        Ok(LayerRecordMeta::of(self.load_layer(l)?.as_ref()))
    }

    /// True when [`Self::load_layer`] returns cheap borrows of
    /// already-resident layers. Consumers use this to skip
    /// load/compute overlap: prefetching a borrow cannot pay for the
    /// thread hand-off it rides on.
    fn layers_resident(&self) -> bool {
        false
    }
}

impl LayerStore for QuantizedModel {
    fn head(&self) -> Result<ModelHead, StoreError> {
        Ok(ModelHead::of(self))
    }

    fn store_layer_count(&self) -> usize {
        self.layers.len()
    }

    fn load_layer(&self, l: usize) -> Result<Cow<'_, QuantizedLinear>, StoreError> {
        Ok(Cow::Borrowed(&self.layers[l]))
    }

    fn layers_resident(&self) -> bool {
        true
    }
}

/// Write-side acceptance of a quantized model one layer at a time.
/// `begin` receives the head plus the full sizing table (so an indexed
/// encoder can emit its offset table up front), then every layer
/// arrives exactly once, in order, via `put_layer`, and `finish` seals
/// the output.
pub trait LayerSink {
    /// Starts the stream: the resident head plus one
    /// [`LayerRecordMeta`] per upcoming layer.
    ///
    /// # Errors
    ///
    /// Propagates backing-medium failures.
    fn begin(&mut self, head: &ModelHead, layers: &[LayerRecordMeta]) -> Result<(), StoreError>;

    /// Accepts layer `l`. Layers arrive in order, each exactly once.
    ///
    /// # Errors
    ///
    /// Fails if the layer contradicts its declared metadata or the
    /// backing medium errors.
    fn put_layer(&mut self, l: usize, layer: &QuantizedLinear) -> Result<(), StoreError>;

    /// Seals the stream (flushes buffered bytes, verifies every
    /// declared layer arrived).
    ///
    /// # Errors
    ///
    /// Fails if layers are missing or the backing medium errors.
    fn finish(&mut self) -> Result<(), StoreError>;
}

/// Streams every layer of `store` into `sink` unchanged — the identity
/// pipeline (store → sink conversion: artifact ↔ shards ↔ model).
///
/// # Errors
///
/// Propagates store and sink failures.
pub fn copy_store<S, K>(store: &S, sink: &mut K) -> Result<(), StoreError>
where
    S: LayerStore + ?Sized,
    K: LayerSink + ?Sized,
{
    let n = store.store_layer_count();
    let mut metas = Vec::with_capacity(n);
    for l in 0..n {
        metas.push(store.layer_meta(l)?);
    }
    sink.begin(&store.head()?, &metas)?;
    for l in 0..n {
        sink.put_layer(l, store.load_layer(l)?.as_ref())?;
    }
    sink.finish()
}

/// Materializes a [`LayerStore`] as an in-memory [`QuantizedModel`].
///
/// # Errors
///
/// Propagates store failures.
pub fn materialize<S: LayerStore + ?Sized>(store: &S) -> Result<QuantizedModel, StoreError> {
    let head = store.head()?;
    let layers = (0..store.store_layer_count())
        .map(|l| store.load_layer(l).map(Cow::into_owned))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(QuantizedModel::from_parts(
        head.cfg,
        head.emb,
        head.norm_pairs,
        head.final_norm,
        layers,
        head.scheme,
    ))
}

/// Drives `f` over every layer of `store` in order, with layer `N+1`
/// loaded on a scoped worker thread while `f` processes layer `N` — the
/// pipeline-parallel form of a plain `for l in 0..n` load loop
/// (DESIGN.md §11).
///
/// The hand-off is a rendezvous channel ([`std::sync::mpsc::sync_channel`]
/// with capacity 0), so at most **two** layers are ever resident: the
/// one inside `f` and the one the worker has finished loading and is
/// blocked handing over. Peak memory stays at the streaming pipeline's
/// one-layer budget (in-memory stores hand over borrows, which cost
/// nothing), and because layers are delivered strictly in order the
/// caller's observable behavior — selections, bytes written — is
/// identical to the serial loop.
///
/// If `f` returns an error the receiver is dropped; the worker notices
/// on its next hand-off and stops loading.
///
/// # Errors
///
/// Propagates `load_layer` failures and whatever `f` returns.
pub fn for_each_layer_prefetched<'s, S, F>(store: &'s S, mut f: F) -> Result<(), StoreError>
where
    S: LayerStore + Sync + ?Sized,
    F: FnMut(usize, Cow<'s, QuantizedLinear>) -> Result<(), StoreError>,
{
    let n = store.store_layer_count();
    if n == 0 {
        return Ok(());
    }
    type Loaded<'s> = Result<Cow<'s, QuantizedLinear>, StoreError>;
    std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::sync_channel::<Loaded<'s>>(0);
        // The worker only decodes layer records (no recursion), so a
        // small explicit stack keeps the pipeline viable under hard
        // virtual-address caps — the 8 MiB default reservation alone
        // would blow the CI smoke's 12 MiB ulimit.
        std::thread::Builder::new()
            .name("emmark-prefetch".into())
            .stack_size(512 * 1024)
            .spawn_scoped(scope, move || {
                for l in 0..n {
                    // Span timers work from this scoped worker too: load
                    // time lands in STREAM_LOAD_NS while the consumer's
                    // recv wait lands in STREAM_STALL_NS, so a snapshot
                    // shows exactly how much of the serial load cost the
                    // overlap hid.
                    let load_span = telemetry::Span::enter(&telemetry::STREAM_LOAD_NS);
                    let item = store.load_layer(l);
                    drop(load_span);
                    let failed = item.is_err();
                    if tx.send(item).is_err() || failed {
                        return; // consumer bailed, or the store did
                    }
                }
            })
            .map_err(|e| io_err("spawning the prefetch worker", e))?;
        for l in 0..n {
            let stall_span = telemetry::Span::enter(&telemetry::STREAM_STALL_NS);
            let layer = rx.recv().map_err(|_| {
                io_err(
                    "receiving a prefetched layer",
                    std::io::Error::other("prefetch worker disconnected"),
                )
            })??;
            drop(stall_span);
            let compute_span = telemetry::Span::enter(&telemetry::STREAM_COMPUTE_NS);
            f(l, layer)?;
            drop(compute_span);
            if Telemetry::enabled() {
                telemetry::STREAM_LAYERS.incr();
            }
        }
        Ok(())
    })
}

// ---------------------------------------------------------------------
// ArtifactSink — the streaming v2 encoder.
// ---------------------------------------------------------------------

/// The streaming v2 EMQM encoder: a [`LayerSink`] over any
/// [`io::Write`](Write). `begin` derives the complete layer-offset
/// table from the sizing metadata and writes the header, config,
/// index, embeddings, and norms; each `put_layer` serializes one record
/// into a reused scratch buffer and forwards it. Peak memory is the
/// head plus the largest single record — the output is **never**
/// resident.
///
/// Byte-identity with [`crate::deploy::encode_model`] holds by
/// construction: `encode_model` is implemented as this sink writing
/// into a `Vec`.
#[derive(Debug)]
pub struct ArtifactSink<W: Write> {
    w: W,
    metas: Vec<LayerRecordMeta>,
    next_layer: usize,
    /// Reused per-record scratch buffer (the "ring" of the streaming
    /// pipeline — one record wide, rewound every layer).
    scratch: BytesMut,
    finished: bool,
}

impl<W: Write> ArtifactSink<W> {
    /// Creates a sink writing the v2 wire format into `w`.
    pub fn new(w: W) -> Self {
        Self {
            w,
            metas: Vec::new(),
            next_layer: 0,
            scratch: BytesMut::new(),
            finished: false,
        }
    }

    /// Consumes the sink, returning the underlying writer.
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl<W: Write> LayerSink for ArtifactSink<W> {
    fn begin(&mut self, head: &ModelHead, layers: &[LayerRecordMeta]) -> Result<(), StoreError> {
        // The header and index are derived exactly as encode_model lays
        // them out; every offset is known from the sizing table alone.
        let mut cfg_buf = BytesMut::with_capacity(256);
        put_config(&mut cfg_buf, &head.cfg);
        put_string(&mut cfg_buf, &head.scheme);

        let mut body_buf = BytesMut::with_capacity(1 << 12);
        put_matrix(&mut body_buf, &head.emb.tok.value);
        put_matrix(&mut body_buf, &head.emb.pos.value);
        body_buf.put_u32_le(head.norm_pairs.len() as u32);
        for (n1, n2) in &head.norm_pairs {
            put_norm(&mut body_buf, n1);
            put_norm(&mut body_buf, n2);
        }
        put_norm(&mut body_buf, &head.final_norm);

        let n = layers.len();
        let index_len = 4 + n * INDEX_ENTRY_BYTES;
        let layers_start = 8 + cfg_buf.len() + index_len + body_buf.len();

        let mut header = BytesMut::with_capacity(8 + cfg_buf.len() + index_len);
        header.put_slice(MAGIC);
        header.put_u32_le(FORMAT_V2);
        header.put_slice(&cfg_buf);
        header.put_u32_le(n as u32);
        let mut record_offset = layers_start;
        for meta in layers {
            header.put_u32_le(meta.in_features as u32);
            header.put_u32_le(meta.out_features as u32);
            header.put_u8(meta.bits);
            let (tag, group) = granularity_tag(meta.granularity);
            header.put_u8(tag);
            header.put_u32_le(group);
            header.put_u64_le(record_offset as u64);
            let q_off = meta.q_offset_in_record().ok_or_else(|| {
                StoreError::Codec(CodecError::Corrupt {
                    section: Section::LayerIndex,
                    offset: 0,
                    msg: "layer record extent overflows".into(),
                })
            })?;
            header.put_u64_le((record_offset + q_off) as u64);
            record_offset += meta.record_len;
        }
        self.w
            .write_all(&header)
            .map_err(|e| io_err("writing the artifact header", e))?;
        self.w
            .write_all(&body_buf)
            .map_err(|e| io_err("writing embeddings and norms", e))?;
        self.metas = layers.to_vec();
        self.next_layer = 0;
        Ok(())
    }

    fn put_layer(&mut self, l: usize, layer: &QuantizedLinear) -> Result<(), StoreError> {
        let corrupt = |msg: String| {
            StoreError::Codec(CodecError::Corrupt {
                section: Section::Layer(l),
                offset: 0,
                msg,
            })
        };
        if self.finished {
            return Err(corrupt("stream already finished".into()));
        }
        if l != self.next_layer {
            return Err(corrupt(format!(
                "layers must arrive in order (expected {}, got {l})",
                self.next_layer
            )));
        }
        let Some(meta) = self.metas.get(l).copied() else {
            return Err(corrupt(format!(
                "layer {l} was not declared at begin ({} layers)",
                self.metas.len()
            )));
        };
        self.scratch.clear();
        put_qlinear(&mut self.scratch, layer);
        if self.scratch.len() != meta.record_len {
            return Err(corrupt(format!(
                "record is {} bytes but the sizing sweep promised {}",
                self.scratch.len(),
                meta.record_len
            )));
        }
        debug_assert_eq!(Some(q_offset_in_record(layer)), meta.q_offset_in_record());
        self.w
            .write_all(&self.scratch)
            .map_err(|e| io_err("writing a layer record", e))?;
        self.next_layer += 1;
        Ok(())
    }

    fn finish(&mut self) -> Result<(), StoreError> {
        let corrupt = |msg: String| {
            StoreError::Codec(CodecError::Corrupt {
                section: Section::Layers,
                offset: 0,
                msg,
            })
        };
        if self.finished {
            return Err(corrupt("stream already finished".into()));
        }
        if self.next_layer != self.metas.len() {
            return Err(corrupt(format!(
                "stream ended after {} of {} layers",
                self.next_layer,
                self.metas.len()
            )));
        }
        self.finished = true;
        self.w
            .flush()
            .map_err(|e| io_err("flushing the artifact", e))
    }
}

// ---------------------------------------------------------------------
// ModelSink — materialize into a QuantizedModel.
// ---------------------------------------------------------------------

/// A [`LayerSink`] that assembles an in-memory [`QuantizedModel`].
#[derive(Debug, Default)]
pub struct ModelSink {
    head: Option<ModelHead>,
    expected: usize,
    layers: Vec<QuantizedLinear>,
}

impl ModelSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The assembled model, once every declared layer has arrived.
    ///
    /// # Errors
    ///
    /// Fails if `begin`/`finish` never ran or layers are missing.
    pub fn into_model(self) -> Result<QuantizedModel, StoreError> {
        let corrupt = |msg: String| {
            StoreError::Codec(CodecError::Corrupt {
                section: Section::Layers,
                offset: 0,
                msg,
            })
        };
        let Some(head) = self.head else {
            return Err(corrupt("stream never began".into()));
        };
        if self.layers.len() != self.expected {
            return Err(corrupt(format!(
                "stream ended after {} of {} layers",
                self.layers.len(),
                self.expected
            )));
        }
        Ok(QuantizedModel::from_parts(
            head.cfg,
            head.emb,
            head.norm_pairs,
            head.final_norm,
            self.layers,
            head.scheme,
        ))
    }
}

impl LayerSink for ModelSink {
    fn begin(&mut self, head: &ModelHead, layers: &[LayerRecordMeta]) -> Result<(), StoreError> {
        self.head = Some(head.clone());
        self.expected = layers.len();
        self.layers = Vec::with_capacity(layers.len());
        Ok(())
    }

    fn put_layer(&mut self, l: usize, layer: &QuantizedLinear) -> Result<(), StoreError> {
        if l != self.layers.len() {
            return Err(StoreError::Codec(CodecError::Corrupt {
                section: Section::Layer(l),
                offset: 0,
                msg: format!(
                    "layers must arrive in order (expected {})",
                    self.layers.len()
                ),
            }));
        }
        self.layers.push(layer.clone());
        Ok(())
    }

    fn finish(&mut self) -> Result<(), StoreError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{decode_model, encode_model, SparseArtifact};
    use emmark_nanolm::config::ModelConfig as Cfg;
    use emmark_nanolm::TransformerModel;
    use emmark_quant::awq::{awq, AwqConfig};
    use emmark_quant::llm_int8::{llm_int8, OutlierCriterion};
    use emmark_quant::smoothquant::{smoothquant, SmoothQuantConfig};
    use std::fs::File;
    use std::path::PathBuf;

    fn models() -> Vec<QuantizedModel> {
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
    fn record_meta_matches_the_encoded_record_length() {
        for model in models() {
            let bytes = encode_model(&model);
            let sparse = SparseArtifact::open(&bytes).expect("open");
            let index = sparse.layer_index();
            for (l, layer) in model.layers.iter().enumerate() {
                let meta = LayerRecordMeta::of(layer);
                let end = index.get(l + 1).map_or(bytes.len(), |e| e.record_offset);
                assert_eq!(
                    meta.record_len,
                    end - index[l].record_offset,
                    "{}: layer {l} record length",
                    model.scheme
                );
                assert_eq!(
                    meta.q_offset_in_record(),
                    Some(index[l].q_offset - index[l].record_offset),
                    "{}: layer {l} q offset",
                    model.scheme
                );
            }
        }
    }

    #[test]
    fn artifact_sink_is_byte_identical_to_encode_model() {
        for model in models() {
            let mut out = Vec::new();
            let mut sink = ArtifactSink::new(&mut out);
            copy_store(&model, &mut sink).expect("copy");
            assert_eq!(
                out,
                encode_model(&model).to_vec(),
                "{}: streaming encode must match the in-memory encoder",
                model.scheme
            );
        }
    }

    /// `bytes` written to a per-test scratch file (tests run in
    /// parallel), opened file-backed; the path is returned for the
    /// caller to rewrite and remove.
    fn file_backed(bytes: &[u8], tag: &str) -> (SparseArtifact<'static>, PathBuf) {
        let path =
            std::env::temp_dir().join(format!("emmark-store-{}-{tag}.emqm", std::process::id()));
        std::fs::write(&path, bytes).expect("write scratch file");
        let artifact = SparseArtifact::open_file(File::open(&path).expect("open")).expect("open");
        (artifact, path)
    }

    #[test]
    fn artifact_store_round_trips_every_layer() {
        for model in models() {
            let bytes = encode_model(&model).to_vec();
            let (file, path) = file_backed(&bytes, &format!("roundtrip-{}", model.scheme));
            for store in [SparseArtifact::open(&bytes).expect("open"), file] {
                assert_eq!(store.store_layer_count(), model.layer_count());
                let head = store.head().expect("head");
                assert_eq!(head.cfg, model.cfg);
                assert_eq!(head.scheme, model.scheme);
                for (l, layer) in model.layers.iter().enumerate() {
                    let loaded = store.load_layer(l).expect("load");
                    assert_eq!(loaded.as_ref(), layer, "{}: layer {l}", model.scheme);
                    assert_eq!(
                        store.layer_meta(l).expect("meta"),
                        LayerRecordMeta::of(layer)
                    );
                }
                // Full materialization equals the canonical decoder.
                let materialized = materialize(&store).expect("materialize");
                let decoded = decode_model(&bytes).expect("decode");
                assert!(materialized.same_weights(&decoded));
                assert_eq!(materialized.cfg, decoded.cfg);
                let mut copied = Vec::new();
                copy_store(&store, &mut ArtifactSink::new(&mut copied)).expect("copy");
                assert_eq!(copied, bytes, "{}: copy is byte-identical", model.scheme);
            }
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn artifact_store_rejects_v1_and_truncation() {
        let model = &models()[0];
        let v2 = encode_model(model).to_vec();
        let path =
            std::env::temp_dir().join(format!("emmark-store-{}-refusals.emqm", std::process::id()));
        let open_both = |bytes: &[u8]| {
            std::fs::write(&path, bytes).expect("write scratch file");
            let file = SparseArtifact::open_file(File::open(&path).expect("open")).err();
            (SparseArtifact::open(bytes).err(), file)
        };
        // A retired version-1 header in front of an otherwise valid body.
        let mut v1 = v2.clone();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        let (slice, file) = open_both(&v1);
        assert_eq!(slice, Some(CodecError::BadVersion(1)));
        assert!(matches!(
            file,
            Some(StoreError::Codec(CodecError::BadVersion(1)))
        ));
        // The structural walk needs the whole body, so every cut —
        // including one inside the last record's trailing fields — is
        // refused at open by both sources.
        for cut in [3usize, 9, 64, v2.len() / 2, v2.len() - 3] {
            let (slice, file) = open_both(&v2[..cut]);
            assert!(slice.is_some(), "cut at {cut} must not open in memory");
            assert!(file.is_some(), "cut at {cut} must not open from a file");
        }
        // So is a corrupt bit-width byte in a record.
        let record = SparseArtifact::open(&v2).expect("open").layer_index()[0].record_offset;
        let mut evil = v2.clone();
        evil[record + 8] = 99;
        let (slice, file) = open_both(&evil);
        assert!(matches!(slice, Some(CodecError::Corrupt { .. })));
        assert!(matches!(
            file,
            Some(StoreError::Codec(CodecError::Corrupt { .. }))
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bytes_after_the_last_record_belong_to_no_record() {
        let model = &models()[0];
        let mut bytes = encode_model(model).to_vec();
        bytes.extend([0u8; 5]);
        let expected = encode_model(&decode_model(&bytes).expect("decode")).to_vec();
        let (file, path) = file_backed(&bytes, "appended");
        for store in [SparseArtifact::open(&bytes).expect("open"), file] {
            let last = store.store_layer_count() - 1;
            assert_eq!(
                store.layer_meta(last).expect("meta"),
                LayerRecordMeta::of(&model.layers[last])
            );
            let mut copied = Vec::new();
            copy_store(&store, &mut ArtifactSink::new(&mut copied)).expect("copy");
            assert_eq!(copied, expected);
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn a_record_rewritten_after_open_fails_to_load_alone() {
        let model = &models()[0];
        let bytes = encode_model(model).to_vec();
        let (store, path) = file_backed(&bytes, "rewritten");
        // Records overwritten in place after open: the walk passed, so
        // only the load of that very record notices.
        let index = store.layer_index();
        let file = File::options().write(true).open(&path).expect("open");
        let rewrite = |offset: usize, data: &[u8]| {
            std::os::unix::fs::FileExt::write_all_at(&file, data, offset as u64).expect("rewrite")
        };
        // Layer 0 gets an invalid bit width, layer 1 the other valid one
        // (a record that decodes but disagrees with its index entry).
        rewrite(index[0].record_offset + 8, &[99]);
        rewrite(index[1].record_offset + 8, &[12 - index[1].bits]);
        // A later layer with a bias becomes the same layer without one,
        // zero-padded to its old length: it decodes, with the right
        // shape, but ends short of where the next record starts.
        let biased = (2..model.layer_count())
            .find(|&l| model.layers[l].bias().is_some())
            .expect("a layer with a bias");
        let layer = &model.layers[biased];
        let unbiased = QuantizedLinear::new(
            layer.q_values().to_vec(),
            layer.in_features(),
            layer.out_features(),
            layer.bits(),
            layer.granularity(),
            layer.scales().to_vec(),
            layer.input_scale().map(<[f32]>::to_vec),
            None,
            layer.act_quant(),
        );
        let mut record = BytesMut::new();
        put_qlinear(&mut record, &unbiased);
        let mut record = record.to_vec();
        record.resize(LayerRecordMeta::of(layer).record_len, 0);
        rewrite(index[biased].record_offset, &record);
        for l in [0, 1, biased] {
            let err = store.load_layer(l).expect_err("rewritten record");
            assert!(
                matches!(&err, StoreError::Codec(CodecError::Corrupt { section: Section::Layer(at), .. }) if *at == l),
                "layer {l}: {err:?}"
            );
            if l != 0 {
                assert!(err.to_string().contains("index entry"), "layer {l}: {err}");
            }
        }
        for l in (2..model.layer_count()).filter(|&l| l != biased) {
            assert!(store.load_layer(l).is_ok(), "layer {l} stays readable");
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn sinks_reject_out_of_order_and_short_streams() {
        let model = &models()[0];
        let head = ModelHead::of(model);
        let metas: Vec<LayerRecordMeta> = model.layers.iter().map(LayerRecordMeta::of).collect();

        let mut sink = ArtifactSink::new(Vec::new());
        sink.begin(&head, &metas).expect("begin");
        assert!(matches!(
            sink.put_layer(1, &model.layers[1]),
            Err(StoreError::Codec(_))
        ));
        sink.put_layer(0, &model.layers[0]).expect("in order");
        assert!(matches!(sink.finish(), Err(StoreError::Codec(_))));

        // A layer that contradicts its sizing metadata is refused (pick
        // one whose record length actually differs from layer 0's).
        let other = model
            .layers
            .iter()
            .position(|l| LayerRecordMeta::of(l).record_len != metas[0].record_len)
            .expect("some layer with a different record length");
        let mut sink = ArtifactSink::new(Vec::new());
        sink.begin(&head, &metas).expect("begin");
        assert!(matches!(
            sink.put_layer(0, &model.layers[other]),
            Err(StoreError::Codec(_))
        ));

        let mut msink = ModelSink::new();
        msink.begin(&head, &metas).expect("begin");
        msink.put_layer(0, &model.layers[0]).expect("in order");
        assert!(matches!(
            msink.put_layer(2, &model.layers[2]),
            Err(StoreError::Codec(_))
        ));
        assert!(msink.into_model().is_err());
    }

    #[test]
    fn prefetched_iteration_matches_serial_and_propagates_errors() {
        for model in models() {
            let bytes = encode_model(&model).to_vec();
            let (file, path) = file_backed(&bytes, &format!("prefetch-{}", model.scheme));
            for store in [SparseArtifact::open(&bytes).expect("open"), file] {
                let mut seen = Vec::new();
                for_each_layer_prefetched(&store, |l, layer| {
                    seen.push((l, layer.into_owned()));
                    Ok(())
                })
                .expect("prefetched walk");
                assert_eq!(seen.len(), model.layer_count(), "{}", model.scheme);
                for (l, layer) in &seen {
                    assert_eq!(layer, &model.layers[*l], "{}: layer {l}", model.scheme);
                }
            }
            let _ = std::fs::remove_file(path);
            // In-memory stores hand over borrows through the channel.
            let mut borrowed = 0usize;
            for_each_layer_prefetched(&model, |_, layer| {
                borrowed += matches!(layer, Cow::Borrowed(_)) as usize;
                Ok(())
            })
            .expect("borrowing walk");
            assert_eq!(borrowed, model.layer_count(), "{}", model.scheme);
        }
        // A consumer error stops the walk (and the worker) cleanly.
        let model = &models()[0];
        let mut calls = 0usize;
        let err = for_each_layer_prefetched(model, |_, _| {
            calls += 1;
            Err(StoreError::Io {
                what: "consumer stage",
                source: std::io::Error::other("stage failed"),
            })
        })
        .expect_err("consumer error surfaces");
        assert_eq!(calls, 1);
        assert!(err.to_string().contains("consumer stage"));
        // A store error mid-stream surfaces for the failing layer: the
        // file shrinks after open, cutting into the last record.
        let bytes = encode_model(model).to_vec();
        let (store, path) = file_backed(&bytes, "prefetch-truncated");
        File::options()
            .write(true)
            .open(&path)
            .and_then(|f| f.set_len(bytes.len() as u64 - 3))
            .expect("truncate");
        let mut ok_layers = 0usize;
        let err = for_each_layer_prefetched(&store, |_, _| {
            ok_layers += 1;
            Ok(())
        })
        .expect_err("truncated last record");
        assert_eq!(ok_layers, model.layer_count() - 1);
        assert!(matches!(err, StoreError::Io { .. }), "{err:?}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn store_error_messages_are_informative() {
        let e = StoreError::Io {
            what: "reading a layer record",
            source: std::io::Error::other("disk gone"),
        };
        assert!(e.to_string().contains("reading a layer record"));
        assert!(e.to_string().contains("disk gone"));
        let e = StoreError::from(CodecError::BadMagic);
        assert!(e.to_string().contains("magic"));
    }
}
