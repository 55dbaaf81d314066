//! # emmark-core
//!
//! The primary contribution of *EmMark: Robust Watermarks for IP
//! Protection of Embedded Quantized Large Language Models* (DAC 2024):
//!
//! * [`scoring`] — the Eq. 2–4 parameter scoring function (quality score
//!   `S_q`, saliency score `S_r`, clamp-level exclusion);
//! * [`signature`] — Rademacher `±1` signature sequences;
//! * [`watermark`] — insertion (Eq. 5), location reproduction,
//!   extraction and WER (Eqs. 6–7), chance-match strength (Eq. 8), and
//!   the [`watermark::OwnerSecrets`] bundle the proprietor keeps;
//! * [`baselines`] — the paper's comparison schemes RandomWM and
//!   SpecMark (including the full-precision SpecMark control);
//! * [`scheme`] — one trait over all three for the experiment harness;
//! * [`deploy`] — the binary format of the deployed artifact: the
//!   indexed EMQM v2 codec plus [`deploy::SparseArtifact`], the
//!   random-access reader that serves individual weight cells without
//!   materializing a model (the retired v1 layout is refused with
//!   [`CodecError::BadVersion`]);
//! * [`fingerprint`] — per-device traitor-tracing fingerprints on top of
//!   the shared ownership watermark;
//! * [`fleet`] — the one verification engine ([`fleet::FleetVerifier`]):
//!   parallel batch verification and leak identification over a
//!   one-time per-model-family cache, indexed when a
//!   [`registry::LeakIndex`] is attached, plus the on-disk device
//!   registry;
//! * [`provision`] — the batch provisioning engine
//!   ([`provision::FleetProvisioner`]): score-once/insert-many
//!   fingerprinting over the same family cache, emitting device
//!   artifacts by delta-patching the base artifact through the v2
//!   offset index;
//! * [`registry`] — million-device scale: `EMFM`-manifested shard
//!   registries plus the fingerprint-cell inverted index
//!   ([`registry::LeakIndex`]) that makes leak identification sublinear
//!   in fleet size with bit-identical verdicts;
//! * [`vault`] — versioned serialization of the owner's secret bundle
//!   and the provisioned-fleet bundle;
//! * [`container`] — which magic selects which reader: the one open of
//!   every owner file for inspection, and of every fleet registry for
//!   verification and leak identification, shared by the CLI and
//!   `emmarkd`;
//! * [`telemetry`] — zero-dependency spans, counters, and log-scale
//!   histograms instrumenting all of the above, with JSONL and
//!   Prometheus-text export and a single-atomic-load disabled mode;
//! * [`service`] — `emmarkd`: the long-running batched
//!   verification/provisioning service ([`service::Service`]) behind a
//!   length-prefixed frame protocol, serving verify / provision /
//!   identify-leak / inspect requests from a warm per-model-family LRU
//!   through a bounded worker pool with backpressure and a shared
//!   resident-memory budget.
//!
//! # Examples
//!
//! End-to-end ownership proof:
//!
//! ```
//! use emmark_core::watermark::{OwnerSecrets, WatermarkConfig};
//! use emmark_nanolm::{config::ModelConfig, TransformerModel};
//! use emmark_quant::awq::{awq, AwqConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The proprietor quantizes a trained model…
//! let mut model = TransformerModel::new(ModelConfig::tiny_test());
//! let calib = vec![vec![1u32, 2, 3, 4, 5, 6]];
//! let stats = model.collect_activation_stats(&calib);
//! let quantized = awq(&model, &stats, &AwqConfig::default());
//!
//! // …keeps the secrets, deploys the watermarked copy…
//! let cfg = WatermarkConfig { bits_per_layer: 4, pool_ratio: 10, ..Default::default() };
//! let secrets = OwnerSecrets::new(quantized, stats, cfg, 0xB10C);
//! let deployed = secrets.watermark_for_deployment()?;
//!
//! // …and later proves ownership of the deployed weights.
//! let report = secrets.verify(&deployed)?;
//! assert_eq!(report.wer(), 100.0);
//! assert!(report.proves_ownership(-9.0));
//! # Ok(())
//! # }
//! ```

pub mod baselines;
pub mod container;
pub mod deploy;
pub mod fingerprint;
pub mod fleet;
pub mod provision;
pub mod registry;
pub mod scheme;
pub mod scoring;
pub mod service;
pub mod signature;
pub mod store;
pub mod telemetry;
pub mod vault;
pub mod watermark;

pub use deploy::{CodecError, LayerGridView, LayerIndexEntry, Section, SparseArtifact};
pub use fleet::{FleetError, FleetVerdict, FleetVerifier};
pub use registry::{
    decode_manifest, encode_manifest, load_sharded_registry, manifest_section_boundaries,
    provision_sharded, provision_sharded_into, shard_checksum, shard_file_name, LeakIndex,
    ShardEntry, ShardManifest, ShardedFleet, ShardedRegistry,
};
pub use scheme::{EmMarkScheme, RandomWmScheme, SpecMarkScheme, WatermarkScheme};
pub use service::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    Blob, InspectSummary, ReportSummary, Request, Response, Service, ServiceConfig,
    MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
pub use signature::Signature;
pub use telemetry::{peak_resident_mib, Counter, Histogram, Snapshot, Span, Telemetry};

pub use store::{
    copy_store, for_each_layer_prefetched, materialize, ArtifactSink, LayerRecordMeta, LayerSink,
    LayerStore, ModelHead, ModelSink, StoreError,
};
pub use watermark::{
    extract_watermark, extract_with_locations, insert_watermark, locate_watermark,
    stream_watermark, stream_watermark_reference, ExtractionReport, GridSource, OwnerSecrets,
    WatermarkConfig, WatermarkError,
};
