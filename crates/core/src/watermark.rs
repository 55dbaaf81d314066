//! EmMark watermark insertion and extraction (§4 of the paper).
//!
//! Insertion (Eq. 5): score every cell of every quantized layer
//! (Eqs. 2–4), keep the `|B_c|` best per layer as the candidate pool,
//! pick `|B|/n` of them with the secret seed `d`, and bump each chosen
//! integer by its signature bit. Extraction (Eqs. 6–7): re-derive the
//! locations from `(d, W, A_f, α, β)`, diff the suspect weights against
//! the original, and count exact `ΔW == b` matches. Eq. 8 turns the match
//! count into a chance probability.

use crate::scoring::{layer_pool, PoolError, ScoreCoefficients};
use crate::signature::Signature;
use crate::store::{for_each_layer_prefetched, ArtifactSink, LayerSink, LayerStore, StoreError};
use crate::telemetry;
use emmark_nanolm::model::ActivationStats;
use emmark_quant::{QuantizedLinear, QuantizedModel};
use emmark_tensor::rng::{SplitMix64, Xoshiro256};
use emmark_tensor::stats::log10_binomial_tail;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Watermark insertion parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatermarkConfig {
    /// Scoring coefficients `(α, β)`; paper default `(0.5, 0.5)`.
    pub alpha: f64,
    /// See `alpha`.
    pub beta: f64,
    /// Signature bits inserted per quantized layer (`|B| / n`).
    pub bits_per_layer: usize,
    /// Candidate-pool ratio `|B_c| · n / |B|`: the pool holds
    /// `pool_ratio × bits_per_layer` cells. Paper: 50 for models below
    /// the 6.7B-equivalent, 60 at and above.
    pub pool_ratio: usize,
    /// The secret selection seed `d` (paper experiments use 100).
    pub selection_seed: u64,
}

impl Default for WatermarkConfig {
    fn default() -> Self {
        Self {
            alpha: 0.5,
            beta: 0.5,
            bits_per_layer: 8,
            pool_ratio: 50,
            selection_seed: 100,
        }
    }
}

impl WatermarkConfig {
    /// Scaled default for INT8 grids (paper: 300 bits/layer at OPT scale;
    /// 24 here — DESIGN.md §4 records the density mapping).
    pub fn int8_default() -> Self {
        Self {
            bits_per_layer: 24,
            ..Self::default()
        }
    }

    /// Scaled default for INT4 grids (paper: 40 bits/layer; 8 here).
    pub fn int4_default() -> Self {
        Self {
            bits_per_layer: 8,
            ..Self::default()
        }
    }

    /// The coefficients as a [`ScoreCoefficients`].
    pub fn coefficients(&self) -> ScoreCoefficients {
        ScoreCoefficients {
            alpha: self.alpha,
            beta: self.beta,
        }
    }

    /// Total signature length for a model with `n_layers` quantized
    /// layers.
    pub fn signature_len(&self, n_layers: usize) -> usize {
        self.bits_per_layer * n_layers
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`WatermarkError::InvalidConfig`] on nonsensical values.
    pub fn validate(&self) -> Result<(), WatermarkError> {
        self.coefficients()
            .validate()
            .map_err(WatermarkError::InvalidConfig)?;
        if self.bits_per_layer == 0 {
            return Err(WatermarkError::InvalidConfig(
                "bits_per_layer must be positive".into(),
            ));
        }
        if self.pool_ratio < 1 {
            return Err(WatermarkError::InvalidConfig(
                "pool_ratio must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Errors of the watermarking pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum WatermarkError {
    /// A layer cannot supply the requested candidate pool.
    Pool {
        /// Canonical index of the failing layer.
        layer: usize,
        /// The underlying shortage.
        source: PoolError,
    },
    /// Configuration is internally inconsistent.
    InvalidConfig(String),
    /// Signature length does not match `bits_per_layer × n`.
    SignatureLength {
        /// Expected length.
        expected: usize,
        /// Provided length.
        got: usize,
    },
    /// Suspect and original models have different shapes.
    ShapeMismatch(String),
}

impl std::fmt::Display for WatermarkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WatermarkError::Pool { layer, source } => {
                write!(f, "layer {layer}: {source}")
            }
            WatermarkError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            WatermarkError::SignatureLength { expected, got } => {
                write!(
                    f,
                    "signature length {got} does not match required {expected}"
                )
            }
            WatermarkError::ShapeMismatch(msg) => write!(f, "model shape mismatch: {msg}"),
        }
    }
}

impl std::error::Error for WatermarkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WatermarkError::Pool { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Per-layer watermark locations (flat cell indices, in selection order).
pub type Locations = Vec<Vec<usize>>;

/// Read-only access to a model's integer weight grids — the only
/// capability extraction (Eqs. 6–7) actually needs.
///
/// Implemented by the in-memory [`QuantizedModel`] and by the
/// random-access [`crate::deploy::SparseArtifact`] reader; both produce
/// bit-identical [`ExtractionReport`]s, but the sparse implementation
/// reads O(watermark bits) artifact bytes instead of decoding the whole
/// model.
pub trait GridSource {
    /// Number of quantized layers.
    fn source_layer_count(&self) -> usize;
    /// `(in_features, out_features)` of layer `l`.
    fn layer_dims(&self, l: usize) -> (usize, usize);
    /// Integer value at flat index `f` of layer `l`.
    fn q_at(&self, l: usize, f: usize) -> i8;
}

impl GridSource for QuantizedModel {
    fn source_layer_count(&self) -> usize {
        self.layers.len()
    }

    fn layer_dims(&self, l: usize) -> (usize, usize) {
        (self.layers[l].in_features(), self.layers[l].out_features())
    }

    fn q_at(&self, l: usize, f: usize) -> i8 {
        self.layers[l].q_at_flat(f)
    }
}

/// Re-derives the watermark weight locations from the secret material:
/// the *original* quantized weights, the full-precision activation
/// profile, the coefficients, and the selection seed. Used by both
/// insertion and extraction — the paper's location-reproduction step.
///
/// # Errors
///
/// Returns [`WatermarkError::Pool`] if a layer cannot fill its candidate
/// pool, or [`WatermarkError::InvalidConfig`] on bad parameters.
pub fn locate_watermark(
    original: &QuantizedModel,
    stats: &ActivationStats,
    cfg: &WatermarkConfig,
) -> Result<Locations, WatermarkError> {
    let located = locate_in_store(original, stats, cfg, None, locate_layer, false);
    located.map_err(StoreError::into_watermark)
}

/// The one locate loop, [`locate_watermark`] over any [`LayerStore`]:
/// `locate` on every layer under its sub-seed, one layer resident (plus
/// one in flight, loaded on a worker, when `overlap`). Over an artifact
/// each record is decoded (and value-checked) once and dropped, so W is
/// never resident whole. The config, the stats' layer count and the
/// `signature`'s length, when one is given, are checked first.
pub(crate) fn locate_in_store<S: LayerStore + Sync + ?Sized>(
    store: &S,
    stats: &ActivationStats,
    cfg: &WatermarkConfig,
    signature: Option<&Signature>,
    locate: LocateFn,
    overlap: bool,
) -> Result<Locations, StoreError> {
    cfg.validate()?;
    let n = store.store_layer_count();
    if stats.layer_count() != n {
        return Err(WatermarkError::ShapeMismatch(format!(
            "activation stats cover {} layers, model has {n}",
            stats.layer_count()
        ))
        .into());
    }
    if let Some(signature) = signature {
        check_signature_len(cfg, signature, n)?;
    }
    // One sub-seed per layer, drawn up front from the secret seed.
    let mut sm = SplitMix64::new(cfg.selection_seed);
    let seeds: Vec<u64> = (0..n).map(|_| sm.next_u64()).collect();
    let mut locations = Vec::with_capacity(n);
    let mut step = |l: usize, layer: Cow<'_, QuantizedLinear>| -> Result<(), StoreError> {
        let locs = locate(&layer, &stats.per_layer[l].mean_abs, cfg, seeds[l])
            .map_err(|source| WatermarkError::Pool { layer: l, source })?;
        locations.push(locs);
        Ok(())
    };
    if overlap {
        for_each_layer_prefetched(store, step)?;
    } else {
        for l in 0..n {
            step(l, store.load_layer(l)?)?;
        }
    }
    Ok(locations)
}

/// The signature must cover `bits_per_layer` bits of every layer.
pub(crate) fn check_signature_len(
    cfg: &WatermarkConfig,
    signature: &Signature,
    n_layers: usize,
) -> Result<(), WatermarkError> {
    let expected = cfg.signature_len(n_layers);
    if signature.len() != expected {
        return Err(WatermarkError::SignatureLength {
            expected,
            got: signature.len(),
        });
    }
    Ok(())
}

/// The per-layer unit of location reproduction: Eqs. 2–4 pool the
/// layer's best cells, then the layer's sub-seed samples
/// `bits_per_layer` of them. [`locate_watermark`] is a loop over this
/// stage; the streaming pipeline ([`stream_watermark`]) calls it with
/// one layer resident at a time — identical selections by construction.
pub(crate) fn locate_layer(
    layer: &QuantizedLinear,
    act_mean: &[f32],
    cfg: &WatermarkConfig,
    layer_seed: u64,
) -> Result<Vec<usize>, PoolError> {
    let pool_size = cfg.pool_ratio * cfg.bits_per_layer;
    let pool = layer_pool(layer, act_mean, &cfg.coefficients(), pool_size, &[])?;
    Ok(sample_pool(&pool, cfg, layer_seed))
}

/// [`locate_layer`] over the scalar scoring baseline
/// ([`crate::scoring::reference`]) — the oracle half of the
/// kernel-equivalence gates. Selections are identical to
/// [`locate_layer`] because the kernel and scalar pools are
/// bit-identical.
pub(crate) fn locate_layer_reference(
    layer: &QuantizedLinear,
    act_mean: &[f32],
    cfg: &WatermarkConfig,
    layer_seed: u64,
) -> Result<Vec<usize>, PoolError> {
    let pool_size = cfg.pool_ratio * cfg.bits_per_layer;
    let pool = crate::scoring::reference::layer_pool(
        layer,
        act_mean,
        &cfg.coefficients(),
        pool_size,
        &[],
    )?;
    Ok(sample_pool(&pool, cfg, layer_seed))
}

/// The seeded sampling half of location reproduction: `bits_per_layer`
/// distinct picks from the candidate pool under the layer's sub-seed.
fn sample_pool(pool: &[usize], cfg: &WatermarkConfig, layer_seed: u64) -> Vec<usize> {
    let mut rng = Xoshiro256::seed_from_u64(layer_seed);
    let picks = rng.sample_without_replacement(pool.len(), cfg.bits_per_layer);
    picks.into_iter().map(|p| pool[p]).collect()
}

/// The streaming watermark pipeline: `score → insert → encode` with one
/// layer resident at a time, its stages overlapped across two scoped
/// threads.
///
/// Sweep 1 loads each of `store`'s layers once to reproduce its
/// watermark locations (Eqs. 2–4 + seeded sampling) and record its
/// sizing metadata; sweep 2 loads each layer again, applies its
/// signature bits (Eq. 5), and hands it to `sink`. Within each sweep,
/// layer `N+1` is loaded on a worker thread while layer `N` is being
/// scored (or bumped and encoded) — the two-slot rendezvous hand-off of
/// [`for_each_layer_prefetched`], which is why `store` must be `Sync`
/// (every [`LayerStore`] in this crate is). Peak memory stays at the
/// model head plus one layer in flight plus the location table — never
/// the full model, and never the encoded artifact (an [`ArtifactSink`]
/// forwards records straight to its writer).
///
/// Overlap never changes the result: layers are delivered strictly in
/// order, so selections and bytes are identical to the serial loop
/// (DESIGN.md §11). For an in-memory [`QuantizedModel`] store and an
/// [`ArtifactSink`], the output is **byte-identical** to
/// [`insert_watermark`] followed by [`crate::deploy::encode_model`] and
/// to the serial scalar baseline [`stream_watermark_reference`];
/// `tests/streaming_equivalence.rs` pins both across all five
/// quantization schemes.
///
/// # Errors
///
/// Propagates configuration, location, store, and sink failures.
pub fn stream_watermark<S, K>(
    store: &S,
    stats: &ActivationStats,
    signature: &Signature,
    cfg: &WatermarkConfig,
    sink: &mut K,
) -> Result<InsertedWatermark, StoreError>
where
    S: LayerStore + Sync + ?Sized,
    K: LayerSink + ?Sized,
{
    stream_watermark_impl(store, stats, signature, cfg, sink, locate_layer, true)
}

/// The pre-kernel, pre-overlap pipeline: serial sweeps over the scalar
/// scoring baseline ([`crate::scoring::reference`]). This is what
/// [`stream_watermark`] was before the PR 7 kernels — the
/// `streaming_pipeline` bench measures end-to-end stamp throughput
/// against it (≥1.5x gate) and asserts byte-identical output.
///
/// # Errors
///
/// Propagates configuration, location, store, and sink failures.
pub fn stream_watermark_reference<S, K>(
    store: &S,
    stats: &ActivationStats,
    signature: &Signature,
    cfg: &WatermarkConfig,
    sink: &mut K,
) -> Result<InsertedWatermark, StoreError>
where
    S: LayerStore + Sync + ?Sized,
    K: LayerSink + ?Sized,
{
    stream_watermark_impl(
        store,
        stats,
        signature,
        cfg,
        sink,
        locate_layer_reference,
        false,
    )
}

/// The per-layer locate stage of the streaming pipelines:
/// [`locate_layer`] (kernel) or [`locate_layer_reference`] (scalar).
type LocateFn =
    fn(&QuantizedLinear, &[f32], &WatermarkConfig, u64) -> Result<Vec<usize>, PoolError>;

/// Both streaming pipelines, parameterized by the per-layer locate
/// stage and whether sweeps overlap load with compute.
fn stream_watermark_impl<S, K>(
    store: &S,
    stats: &ActivationStats,
    signature: &Signature,
    cfg: &WatermarkConfig,
    sink: &mut K,
    locate: LocateFn,
    overlap: bool,
) -> Result<InsertedWatermark, StoreError>
where
    S: LayerStore + Sync + ?Sized,
    K: LayerSink + ?Sized,
{
    // Prefetching a borrow from an already-resident store cannot pay
    // for the per-layer thread hand-off, so overlap only real loads.
    let overlap = overlap && !store.layers_resident();
    // Sweep 1 — locate, one layer resident (plus one in flight); record
    // sizes come from `layer_meta` (an artifact's index).
    let sweep_span = telemetry::Span::enter(&telemetry::STAMP_LOCATE_NS);
    let locations = locate_in_store(store, stats, cfg, Some(signature), locate, overlap)?;
    let n = locations.len();
    let metas = (0..n)
        .map(|l| store.layer_meta(l))
        .collect::<Result<Vec<_>, _>>()?;
    drop(sweep_span);
    // Sweep 2 — insert + encode, streaming each stamped layer out.
    sink.begin(&store.head()?, &metas)?;
    {
        let _sweep_span = telemetry::Span::enter(&telemetry::STAMP_INSERT_NS);
        let mut sweep = |l: usize, layer: Cow<'_, QuantizedLinear>| -> Result<(), StoreError> {
            let mut layer = layer.into_owned();
            let bits = signature.layer_bits(l, n);
            for (&f, &b) in locations[l].iter().zip(bits) {
                layer.bump_q_flat(f, b);
            }
            sink.put_layer(l, &layer)
        };
        if overlap {
            for_each_layer_prefetched(store, sweep)?;
        } else {
            for l in 0..n {
                sweep(l, store.load_layer(l)?)?;
            }
        }
    }
    sink.finish()?;
    Ok(InsertedWatermark {
        locations,
        bits: signature.len(),
    })
}

/// Applies `signature` at pre-derived `locations` (Eq. 5's bump), the
/// shared insertion step of [`insert_watermark`], fleet provisioning,
/// and the batch-verifier reference build. Selection excluded clamped
/// cells, so the bump cannot clip.
pub(crate) fn apply_bits_at(
    model: &mut QuantizedModel,
    locations: &Locations,
    signature: &Signature,
) {
    let n = model.layer_count();
    for (l, layer_locs) in locations.iter().enumerate() {
        let bits = signature.layer_bits(l, n);
        for (&f, &b) in layer_locs.iter().zip(bits) {
            model.layers[l].bump_q_flat(f, b);
        }
    }
}

/// Proof material returned by [`insert_watermark`].
#[derive(Debug, Clone, PartialEq)]
pub struct InsertedWatermark {
    /// The locations that received bits (re-derivable from the secrets).
    pub locations: Locations,
    /// Total bits inserted (`|B|`).
    pub bits: usize,
}

/// Inserts `signature` into `model` in place (Eq. 5:
/// `W'[L_i] = W[L_i] + b_i`).
///
/// `model` must still hold the *original* (pre-watermark) weights; the
/// caller keeps a pristine copy as part of the owner secrets.
///
/// # Errors
///
/// Propagates location errors and rejects signatures whose length is not
/// `bits_per_layer × layer_count`.
pub fn insert_watermark(
    model: &mut QuantizedModel,
    stats: &ActivationStats,
    signature: &Signature,
    cfg: &WatermarkConfig,
) -> Result<InsertedWatermark, WatermarkError> {
    check_signature_len(cfg, signature, model.layer_count())?;
    let locations = locate_watermark(model, stats, cfg)?;
    apply_bits_at(model, &locations, signature);
    Ok(InsertedWatermark {
        locations,
        bits: signature.len(),
    })
}

/// Result of watermark extraction (Eqs. 6–8).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExtractionReport {
    /// Signature length `|B|`.
    pub total_bits: usize,
    /// Exactly matching bits `|B|'`.
    pub matched_bits: usize,
}

impl ExtractionReport {
    /// Watermark extraction rate in percent (Eq. 7).
    pub fn wer(&self) -> f64 {
        if self.total_bits == 0 {
            return 0.0;
        }
        100.0 * self.matched_bits as f64 / self.total_bits as f64
    }

    /// Base-10 log of the chance-match probability (Eq. 8).
    pub fn log10_p_chance(&self) -> f64 {
        log10_binomial_tail(self.total_bits as u64, self.matched_bits as u64)
    }

    /// Ownership claim at the given significance: the probability that a
    /// non-watermarked model matches this many bits by chance is below
    /// `10^log10_threshold`.
    pub fn proves_ownership(&self, log10_threshold: f64) -> bool {
        self.log10_p_chance() < log10_threshold
    }
}

/// The smallest matched-bit count whose chance probability clears
/// `log10_threshold` for a `total_bits`-bit signature, or `None` when
/// even a perfect match cannot. Exact by monotonicity of Eq. 8 in the
/// match count: `report.proves_ownership(t)` ⇔
/// `report.matched_bits >= min_matched_to_prove(report.total_bits, t)`.
///
/// Batch verification uses this to replace one binomial-tail evaluation
/// per registered device with an integer compare — the tail is computed
/// O(log n) times per suspect instead of O(devices) times.
pub fn min_matched_to_prove(total_bits: usize, log10_threshold: f64) -> Option<usize> {
    let n = total_bits as u64;
    if log10_binomial_tail(n, n) >= log10_threshold {
        return None;
    }
    // Binary search the smallest clearing k; invariant: tail(hi) clears.
    let (mut lo, mut hi) = (0u64, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if log10_binomial_tail(n, mid) < log10_threshold {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(hi as usize)
}

/// A log₁₀ chance-match threshold converted lazily into a match-count
/// cutoff — the *single* source of truth for "does this report clear
/// the threshold" wherever many reports of the same signature length
/// are judged against one threshold.
///
/// Every leak-identification path (the serial [`crate::fingerprint::Fleet`],
/// the cached [`crate::fleet::FleetVerifier`], and the indexed
/// [`crate::registry`] path) judges one suspect against many device
/// reports that all share a signature length. Converting the threshold
/// with [`min_matched_to_prove`] once per length and comparing integers
/// afterwards is both cheaper than a binomial tail per device and
/// immune to the drift that duplicated conversion call sites invite.
///
/// `clears` is exactly `report.proves_ownership(threshold)` by the
/// monotonicity contract of [`min_matched_to_prove`]; the module tests
/// pin the equivalence.
#[derive(Debug, Clone)]
pub struct ProofCutoff {
    log10_threshold: f64,
    /// Cached conversion: `(total_bits, min matched count)`.
    cached: Option<(usize, Option<usize>)>,
}

impl ProofCutoff {
    /// A cutoff for `log10_threshold` with no conversion done yet.
    pub fn new(log10_threshold: f64) -> Self {
        Self {
            log10_threshold,
            cached: None,
        }
    }

    /// The threshold this cutoff was built from.
    pub fn log10_threshold(&self) -> f64 {
        self.log10_threshold
    }

    /// The smallest matched-bit count that clears the threshold for a
    /// `total_bits`-bit signature (`None` when even a perfect match
    /// cannot), converting once and answering repeat queries for the
    /// same length from the cache.
    pub fn min_matched(&mut self, total_bits: usize) -> Option<usize> {
        match self.cached {
            Some((total, k)) if total == total_bits => k,
            _ => {
                let k = min_matched_to_prove(total_bits, self.log10_threshold);
                self.cached = Some((total_bits, k));
                k
            }
        }
    }

    /// Whether `report` clears the threshold — bit-identical to
    /// `report.proves_ownership(self.log10_threshold())`, at an integer
    /// compare per call instead of a binomial tail.
    pub fn clears(&mut self, report: &ExtractionReport) -> bool {
        self.min_matched(report.total_bits)
            .is_some_and(|k| report.matched_bits >= k)
    }
}

/// Checks that `suspect` has the same layer grid as `reference`. Both
/// sides are any [`GridSource`] — an in-memory model or a sparse
/// artifact reader; only shape metadata is touched.
///
/// # Errors
///
/// Returns [`WatermarkError::ShapeMismatch`] describing the first
/// divergence.
pub fn check_same_grid<S, R>(suspect: &S, reference: &R) -> Result<(), WatermarkError>
where
    S: GridSource + ?Sized,
    R: GridSource + ?Sized,
{
    if suspect.source_layer_count() != reference.source_layer_count() {
        return Err(WatermarkError::ShapeMismatch(format!(
            "suspect has {} layers, original {}",
            suspect.source_layer_count(),
            reference.source_layer_count()
        )));
    }
    for l in 0..reference.source_layer_count() {
        let (a_in, a_out) = suspect.layer_dims(l);
        let (b_in, b_out) = reference.layer_dims(l);
        if a_in != b_in || a_out != b_out {
            return Err(WatermarkError::ShapeMismatch(format!(
                "layer {l}: suspect {a_in}x{a_out}, original {b_in}x{b_out}"
            )));
        }
    }
    Ok(())
}

/// Eqs. 6–7 with *pre-reproduced* locations: diffs `suspect` against
/// `reference` at `locations` and counts exact `ΔW == b` matches.
///
/// This is the hot inner step of extraction. [`extract_watermark`]
/// re-derives the locations every call; batch verification (the
/// [`crate::fleet`] engine) reproduces them once per model family and
/// calls this directly for every device artifact. Both sides are any
/// [`GridSource`]: a [`crate::deploy::SparseArtifact`] suspect makes the
/// whole check O(watermark bits) in artifact bytes touched.
///
/// # Errors
///
/// Returns [`WatermarkError::ShapeMismatch`] if the suspect's layer grid
/// does not line up with the reference's.
pub fn extract_with_locations<S, R>(
    suspect: &S,
    reference: &R,
    locations: &Locations,
    signature: &Signature,
) -> Result<ExtractionReport, WatermarkError>
where
    S: GridSource + ?Sized,
    R: GridSource + ?Sized,
{
    check_same_grid(suspect, reference)?;
    let n = reference.source_layer_count();
    let mut matched = 0usize;
    let mut total = 0usize;
    for (l, layer_locs) in locations.iter().enumerate() {
        let bits = signature.layer_bits(l, n);
        for (&f, &b) in layer_locs.iter().zip(bits) {
            // Eq. 6: ΔW[L] = W'[L] − W[L]; exact match required.
            let delta = suspect.q_at(l, f) as i16 - reference.q_at(l, f) as i16;
            if delta == b as i16 {
                matched += 1;
            }
            total += 1;
        }
    }
    Ok(ExtractionReport {
        total_bits: total,
        matched_bits: matched,
    })
}

/// Extracts the watermark from `suspect` using the owner's secret
/// material, and scores the match (Eqs. 6–7). The suspect is any
/// [`GridSource`]; the original must be the in-memory model (location
/// reproduction scores its weights).
///
/// # Errors
///
/// Returns [`WatermarkError::ShapeMismatch`] if the suspect's layer grid
/// does not line up with the original's, plus any location error.
pub fn extract_watermark<S: GridSource + ?Sized>(
    suspect: &S,
    original: &QuantizedModel,
    stats: &ActivationStats,
    signature: &Signature,
    cfg: &WatermarkConfig,
) -> Result<ExtractionReport, WatermarkError> {
    check_signature_len(cfg, signature, original.layer_count())?;
    check_same_grid(suspect, original)?;
    let locations = locate_watermark(original, stats, cfg)?;
    extract_with_locations(suspect, original, &locations, signature)
}

/// Everything the model owner keeps confidential: the original quantized
/// weights, the full-precision activation profile, the signature, and
/// the insertion hyperparameters (§4.1 "The watermark consists of…").
#[derive(Debug, Clone)]
pub struct OwnerSecrets {
    /// Pristine pre-watermark quantized model `W`.
    pub original: QuantizedModel,
    /// Full-precision activation profile `A_f`.
    pub stats: ActivationStats,
    /// The signature `B`.
    pub signature: Signature,
    /// Insertion hyperparameters (`α`, `β`, `d`, densities).
    pub config: WatermarkConfig,
}

impl OwnerSecrets {
    /// Creates the secret bundle, generating a fresh signature of the
    /// right length from `signature_seed`.
    pub fn new(
        original: QuantizedModel,
        stats: ActivationStats,
        config: WatermarkConfig,
        signature_seed: u64,
    ) -> Self {
        let signature =
            Signature::generate(config.signature_len(original.layer_count()), signature_seed);
        Self {
            original,
            stats,
            signature,
            config,
        }
    }

    /// Produces the watermarked model to deploy (the original stays
    /// pristine inside the secrets).
    ///
    /// # Errors
    ///
    /// Propagates [`insert_watermark`] errors.
    pub fn watermark_for_deployment(&self) -> Result<QuantizedModel, WatermarkError> {
        let mut deployed = self.original.clone();
        insert_watermark(&mut deployed, &self.stats, &self.signature, &self.config)?;
        Ok(deployed)
    }

    /// Streams the watermarked deployment artifact (v2, indexed)
    /// straight into `out` without materializing the watermarked model
    /// or the artifact: the constant-memory counterpart of
    /// [`Self::watermark_for_deployment`] +
    /// [`crate::deploy::encode_model`], byte-identical to that pair.
    ///
    /// # Errors
    ///
    /// Propagates [`stream_watermark`] errors.
    pub fn watermark_into<W: std::io::Write>(
        &self,
        out: W,
    ) -> Result<InsertedWatermark, StoreError> {
        stream_watermark(
            &self.original,
            &self.stats,
            &self.signature,
            &self.config,
            &mut ArtifactSink::new(out),
        )
    }

    /// Ownership check against a suspect model (Eqs. 6–8). Accepts any
    /// [`GridSource`] — a decoded model or a
    /// [`crate::deploy::SparseArtifact`] (random-access fast path).
    ///
    /// # Errors
    ///
    /// Propagates [`extract_watermark`] errors.
    pub fn verify<S: GridSource + ?Sized>(
        &self,
        suspect: &S,
    ) -> Result<ExtractionReport, WatermarkError> {
        extract_watermark(
            suspect,
            &self.original,
            &self.stats,
            &self.signature,
            &self.config,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emmark_nanolm::config::ModelConfig;
    use emmark_nanolm::TransformerModel;
    use emmark_quant::awq::{awq, AwqConfig};
    use emmark_quant::rtn::quantize_linear_rtn;
    use emmark_quant::{ActQuant, Granularity};

    fn test_setup(bits: u8) -> (QuantizedModel, ActivationStats) {
        let mut model = TransformerModel::new(ModelConfig::tiny_test());
        let calib: Vec<Vec<u32>> = (0..4u32)
            .map(|s| (0..16u32).map(|i| (i * 7 + s * 3) % 31).collect())
            .collect();
        let stats = model.collect_activation_stats(&calib);
        let qm = if bits == 4 {
            awq(&model, &stats, &AwqConfig::default())
        } else {
            QuantizedModel::quantize_with(&model, "rtn-int8", |_, lin| {
                quantize_linear_rtn(lin, 8, Granularity::PerOutChannel, ActQuant::None)
            })
        };
        (qm, stats)
    }

    fn small_cfg() -> WatermarkConfig {
        // tiny_test layers are 16x16=256 cells; keep pool small.
        WatermarkConfig {
            bits_per_layer: 4,
            pool_ratio: 10,
            ..WatermarkConfig::default()
        }
    }

    #[test]
    fn locations_are_reproducible_and_seed_sensitive() {
        let (qm, stats) = test_setup(8);
        let cfg = small_cfg();
        let a = locate_watermark(&qm, &stats, &cfg).expect("locate");
        let b = locate_watermark(&qm, &stats, &cfg).expect("locate");
        assert_eq!(a, b);
        let cfg2 = WatermarkConfig {
            selection_seed: 101,
            ..cfg
        };
        let c = locate_watermark(&qm, &stats, &cfg2).expect("locate");
        assert_ne!(a, c);
        // Distinct locations within a layer.
        for layer_locs in &a {
            let mut sorted = layer_locs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), layer_locs.len());
        }
    }

    #[test]
    fn insert_then_extract_is_perfect() {
        for bits in [8u8, 4] {
            let (qm, stats) = test_setup(bits);
            let secrets = OwnerSecrets::new(qm, stats, small_cfg(), 777);
            let deployed = secrets.watermark_for_deployment().expect("insert");
            let report = secrets.verify(&deployed).expect("extract");
            assert_eq!(report.wer(), 100.0, "bits={bits}");
            assert_eq!(report.matched_bits, report.total_bits);
            assert!(report.proves_ownership(-9.0));
        }
    }

    #[test]
    fn unwatermarked_model_yields_zero_wer() {
        let (qm, stats) = test_setup(4);
        let secrets = OwnerSecrets::new(qm.clone(), stats, small_cfg(), 778);
        let report = secrets.verify(&qm).expect("extract");
        assert_eq!(report.matched_bits, 0);
        assert_eq!(report.wer(), 0.0);
        assert!(!report.proves_ownership(-9.0));
    }

    #[test]
    fn insertion_never_clips_and_changes_exactly_bits_cells() {
        let (qm, stats) = test_setup(4);
        let secrets = OwnerSecrets::new(qm.clone(), stats, small_cfg(), 779);
        let deployed = secrets.watermark_for_deployment().expect("insert");
        let mut changed = 0usize;
        for (a, b) in deployed.layers.iter().zip(&qm.layers) {
            for f in 0..a.len() {
                let d = a.q_at_flat(f) as i16 - b.q_at_flat(f) as i16;
                if d != 0 {
                    changed += 1;
                    assert!(d == 1 || d == -1, "delta {d} is not ±1");
                    // Never wrapped: new value within symmetric range.
                    assert!(a.q_at_flat(f) >= -a.qmax() && a.q_at_flat(f) <= a.qmax());
                }
            }
        }
        assert_eq!(changed, secrets.signature.len());
    }

    #[test]
    fn wrong_secrets_fail_to_extract() {
        let (qm, stats) = test_setup(4);
        let cfg = small_cfg();
        let secrets = OwnerSecrets::new(qm, stats, cfg, 780);
        let deployed = secrets.watermark_for_deployment().expect("insert");

        // Wrong signature.
        let mut wrong_sig = secrets.clone();
        wrong_sig.signature = Signature::generate(secrets.signature.len(), 999);
        let r = wrong_sig.verify(&deployed).expect("extract");
        assert!(r.wer() < 80.0, "wrong signature matched {}%", r.wer());

        // Wrong seed: different locations -> deltas are mostly 0 there.
        let mut wrong_seed = secrets.clone();
        wrong_seed.config.selection_seed = 12345;
        let r = wrong_seed.verify(&deployed).expect("extract");
        assert!(r.wer() < 30.0, "wrong seed matched {}%", r.wer());
        assert!(!r.proves_ownership(-9.0));
    }

    #[test]
    fn signature_length_is_enforced() {
        let (mut qm, stats) = test_setup(8);
        let cfg = small_cfg();
        let sig = Signature::generate(3, 1); // wrong length
        let err = insert_watermark(&mut qm, &stats, &sig, &cfg).expect_err("bad length");
        assert!(matches!(err, WatermarkError::SignatureLength { .. }));
        assert!(err.to_string().contains("signature length"));
    }

    #[test]
    fn oversized_pool_reports_layer() {
        let (mut qm, stats) = test_setup(8);
        let cfg = WatermarkConfig {
            bits_per_layer: 64,
            pool_ratio: 50,
            ..Default::default()
        };
        let sig = Signature::generate(cfg.signature_len(qm.layer_count()), 1);
        let err = insert_watermark(&mut qm, &stats, &sig, &cfg).expect_err("pool too big");
        match err {
            WatermarkError::Pool { source, .. } => {
                assert!(source.needed > source.available);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn shape_mismatch_is_detected() {
        let (qm, stats) = test_setup(8);
        let mut other_cfg = ModelConfig::tiny_test();
        other_cfg.n_layers = 1;
        let other = TransformerModel::new(other_cfg);
        let other_q = QuantizedModel::quantize_with(&other, "rtn", |_, lin| {
            quantize_linear_rtn(lin, 8, Granularity::PerOutChannel, ActQuant::None)
        });
        let secrets = OwnerSecrets::new(qm, stats, small_cfg(), 1);
        let err = secrets.verify(&other_q).expect_err("shape mismatch");
        assert!(matches!(err, WatermarkError::ShapeMismatch(_)));
    }

    #[test]
    fn extraction_report_statistics() {
        let r = ExtractionReport {
            total_bits: 40,
            matched_bits: 40,
        };
        assert_eq!(r.wer(), 100.0);
        // Paper: 9.09e-13 for a fully matched 40-bit layer signature.
        assert!((r.log10_p_chance() - (-12.04)).abs() < 0.01);
        let half = ExtractionReport {
            total_bits: 40,
            matched_bits: 20,
        };
        assert!(half.wer() == 50.0);
        assert!(!half.proves_ownership(-6.0));
    }

    #[test]
    fn min_matched_to_prove_agrees_with_direct_threshold_check() {
        for total in [1usize, 10, 40, 76, 152] {
            for threshold in [-3.0, -6.0, -9.0, -40.0, -200.0] {
                let cutoff = min_matched_to_prove(total, threshold);
                for matched in 0..=total {
                    let report = ExtractionReport {
                        total_bits: total,
                        matched_bits: matched,
                    };
                    let direct = report.proves_ownership(threshold);
                    let via_cutoff = cutoff.is_some_and(|k| matched >= k);
                    assert_eq!(
                        direct, via_cutoff,
                        "total={total} matched={matched} threshold={threshold} cutoff={cutoff:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn proof_cutoff_matches_proves_ownership_and_caches_per_length() {
        for threshold in [-3.0, -6.0, -9.0, -40.0] {
            let mut cutoff = ProofCutoff::new(threshold);
            assert_eq!(cutoff.log10_threshold(), threshold);
            // Mixed lengths interleaved: the cache must re-convert when
            // the length changes and stay exact either way.
            for total in [24usize, 24, 152, 24, 1] {
                for matched in 0..=total {
                    let report = ExtractionReport {
                        total_bits: total,
                        matched_bits: matched,
                    };
                    assert_eq!(
                        cutoff.clears(&report),
                        report.proves_ownership(threshold),
                        "total={total} matched={matched} threshold={threshold}"
                    );
                }
                assert_eq!(
                    cutoff.min_matched(total),
                    min_matched_to_prove(total, threshold)
                );
            }
        }
    }

    #[test]
    fn locations_avoid_clamped_zero_and_outlier_cells() {
        let (qm, stats) = test_setup(4);
        let cfg = small_cfg();
        let locations = locate_watermark(&qm, &stats, &cfg).expect("locate");
        for (l, layer_locs) in locations.iter().enumerate() {
            for &f in layer_locs {
                assert!(!qm.layers[l].is_clamped_flat(f));
                assert!(!qm.layers[l].is_outlier_flat(f));
                assert_ne!(qm.layers[l].q_at_flat(f), 0);
            }
        }
    }
}
