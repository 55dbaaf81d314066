//! Byte-identity of the streaming `LayerStore` pipeline with the
//! buffered in-memory path, across **all five quantization schemes**
//! (RTN, AWQ, GPTQ, SmoothQuant, LLM.int8()):
//!
//! * `stream_watermark` (score → insert → encode, one layer resident)
//!   vs `insert_watermark` + `encode_model`;
//! * an encoded artifact ([`SparseArtifact`], in memory and in a file)
//!   as a source, against the in-memory store;
//! * the streaming fleet emitters (`provision_artifact_into`,
//!   `provision_bundle_into`) vs their buffered counterparts;
//! * the `WatermarkScheme::insert_into` trait path (EmMark's streaming
//!   override vs the default materializing implementation).

use emmark::core::deploy::{encode_model, SparseArtifact};
use emmark::core::provision::FleetProvisioner;
use emmark::core::scheme::{EmMarkScheme, WatermarkScheme};
use emmark::core::signature::Signature;
use emmark::core::store::{ArtifactSink, ModelSink};
use emmark::core::vault::encode_fleet_bundle;
use emmark::core::watermark::{
    insert_watermark, stream_watermark, stream_watermark_reference, OwnerSecrets, WatermarkConfig,
};
use emmark::nanolm::model::ActivationStats;
use emmark::nanolm::{ModelConfig, TransformerModel};
use emmark::quant::awq::{awq, AwqConfig};
use emmark::quant::gptq::{gptq, GptqConfig};
use emmark::quant::llm_int8::{llm_int8, OutlierCriterion};
use emmark::quant::rtn::quantize_linear_rtn;
use emmark::quant::smoothquant::{smoothquant, SmoothQuantConfig};
use emmark::quant::{ActQuant, Granularity, QuantizedModel};
use proptest::prelude::*;
use std::fs::File;

const SCHEMES: [&str; 5] = ["rtn", "awq", "gptq", "smoothquant", "llm_int8"];

/// Builds one of the five quantized models plus its activation profile.
fn quantize(scheme: &str, seed: u64) -> (QuantizedModel, ActivationStats) {
    let mut cfg = ModelConfig::tiny_test();
    cfg.init_seed = seed;
    let mut model = TransformerModel::new(cfg);
    let calib: Vec<Vec<u32>> = (0..4u32)
        .map(|s| (0..16u32).map(|i| (i * 7 + s * 3) % 31).collect())
        .collect();
    let stats = model.collect_activation_stats(&calib);
    let qm = match scheme {
        "rtn" => QuantizedModel::quantize_with(&model, "rtn-int8", |_, lin| {
            quantize_linear_rtn(lin, 8, Granularity::PerOutChannel, ActQuant::None)
        }),
        "awq" => awq(&model, &stats, &AwqConfig::default()),
        "gptq" => gptq(&mut model.clone(), &calib, &GptqConfig::default()),
        "smoothquant" => smoothquant(&model, &stats, &SmoothQuantConfig::default()),
        "llm_int8" => llm_int8(&model, &stats, OutlierCriterion::Quantile(0.9)),
        other => panic!("unknown scheme {other}"),
    };
    (qm, stats)
}

fn wm_cfg() -> WatermarkConfig {
    WatermarkConfig {
        bits_per_layer: 3,
        pool_ratio: 10,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The streaming pipeline is byte-identical to the buffered path
    /// for every scheme, from the in-memory store and the file-backed
    /// artifact store alike.
    #[test]
    fn streaming_stamp_is_byte_identical_across_all_stores(
        scheme in prop::sample::select(SCHEMES.to_vec()),
        seed in 0u64..1_000_000,
    ) {
        let (original, stats) = quantize(scheme, seed);
        let cfg = wm_cfg();
        let sig = Signature::generate(cfg.signature_len(original.layer_count()), seed ^ 0xB17);

        // Buffered reference: clone, insert in place, encode.
        let buffered = {
            let mut deployed = original.clone();
            let inserted = insert_watermark(&mut deployed, &stats, &sig, &cfg).expect("insert");
            prop_assert!(inserted.bits > 0);
            encode_model(&deployed).to_vec()
        };

        // In-memory store → streaming sink (pipeline-parallel sweeps).
        let mut streamed = Vec::new();
        let inserted =
            stream_watermark(&original, &stats, &sig, &cfg, &mut ArtifactSink::new(&mut streamed))
                .expect("stream");
        prop_assert_eq!(&streamed, &buffered, "in-memory store diverged ({})", scheme);

        // The serial scalar-scoring baseline produces the same bytes and
        // the same locations: neither the PR 7 kernels nor the two-slot
        // load/compute overlap may change selection or output.
        let mut ref_streamed = Vec::new();
        let ref_inserted = stream_watermark_reference(
            &original,
            &stats,
            &sig,
            &cfg,
            &mut ArtifactSink::new(&mut ref_streamed),
        )
        .expect("reference stream");
        prop_assert_eq!(
            &ref_streamed, &buffered,
            "serial scalar baseline diverged ({})", scheme
        );
        prop_assert_eq!(&ref_inserted.locations, &inserted.locations);

        // The reported locations match the buffered path's reproduction.
        let relocated =
            emmark::core::watermark::locate_watermark(&original, &stats, &cfg).expect("locate");
        prop_assert_eq!(&inserted.locations, &relocated);

        // The original encoded to v2 bytes and read back layer-at-a-time,
        // in memory and from a file → streaming sink.
        let original_bytes = encode_model(&original).to_vec();
        let path = std::env::temp_dir().join(format!(
            "emmark-streaming-{}-{scheme}-{seed}.emqm",
            std::process::id()
        ));
        std::fs::write(&path, &original_bytes).expect("write scratch file");
        let file = File::open(&path).expect("open scratch file");
        let stores = [
            SparseArtifact::open(&original_bytes).expect("open"),
            SparseArtifact::open_file(file).expect("open file"),
        ];
        let _ = std::fs::remove_file(&path);
        for store in &stores {
            let mut from_artifact = Vec::new();
            stream_watermark(
                store,
                &stats,
                &sig,
                &cfg,
                &mut ArtifactSink::new(&mut from_artifact),
            )
            .expect("stream from artifact");
            prop_assert_eq!(&from_artifact, &buffered, "artifact store diverged ({})", scheme);
        }
    }

    /// Streaming into a `ModelSink` materializes exactly the model the
    /// buffered insertion produces (grids, config, scheme label).
    #[test]
    fn streaming_into_a_model_sink_matches_in_place_insertion(
        scheme in prop::sample::select(SCHEMES.to_vec()),
        seed in 0u64..1_000_000,
    ) {
        let (original, stats) = quantize(scheme, seed);
        let cfg = wm_cfg();
        let sig = Signature::generate(cfg.signature_len(original.layer_count()), seed ^ 0x5EED);
        let mut expected = original.clone();
        insert_watermark(&mut expected, &stats, &sig, &cfg).expect("insert");
        let mut sink = ModelSink::new();
        stream_watermark(&original, &stats, &sig, &cfg, &mut sink).expect("stream");
        let streamed = sink.into_model().expect("materialize");
        prop_assert!(streamed.same_weights(&expected), "{}: grids diverged", scheme);
        prop_assert_eq!(&streamed.cfg, &expected.cfg);
        prop_assert_eq!(&streamed.scheme, &expected.scheme);
    }
}

fn base_secrets() -> OwnerSecrets {
    let (qm, stats) = quantize("awq", 42);
    OwnerSecrets::new(qm, stats, wm_cfg(), 0xF1EE7)
}

fn fp_cfg() -> WatermarkConfig {
    WatermarkConfig {
        bits_per_layer: 2,
        pool_ratio: 10,
        selection_seed: 0xDE11CE,
        ..Default::default()
    }
}

#[test]
fn streamed_device_artifacts_match_the_buffered_delta_encoder() {
    let provisioner = FleetProvisioner::new(base_secrets(), fp_cfg()).expect("cache");
    for id in ["edge-00", "edge-01", "edge-02"] {
        let buffered = provisioner.provision_artifact(id);
        let mut streamed = Vec::new();
        let fp = provisioner
            .provision_artifact_into(id, &mut streamed)
            .expect("stream");
        assert_eq!(fp, buffered.fingerprint, "{id}: registry entry diverged");
        assert_eq!(
            streamed, buffered.artifact,
            "{id}: streamed splice must equal the buffered patch"
        );
    }
}

/// A sink that takes the first `left` bytes and fails every write after.
struct FailAfter {
    left: usize,
}

impl std::io::Write for FailAfter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.left == 0 {
            return Err(std::io::Error::other("device full"));
        }
        let n = buf.len().min(self.left);
        self.left -= n;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A write that fails anywhere in a device artifact is an error, also
/// when it fails on the tail a `BufWriter` still holds when the splice
/// returns: `provision_artifact_into` flushes its sink.
#[test]
fn a_failed_write_anywhere_in_the_tail_is_an_error() {
    let provisioner = FleetProvisioner::new(base_secrets(), fp_cfg()).expect("cache");
    let len = provisioner.base_artifact().len();
    let splice = |left| {
        let out = std::io::BufWriter::new(FailAfter { left });
        provisioner.provision_artifact_into("edge-00", out)
    };
    for left in len.saturating_sub(9000)..len {
        assert!(splice(left).is_err(), "cut after {left} of {len} bytes");
    }
    splice(len).expect("a sink that takes every byte");
}

#[test]
fn streamed_bundle_matches_the_buffered_bundle_encoder() {
    let provisioner = FleetProvisioner::new(base_secrets(), fp_cfg()).expect("cache");
    let ids: Vec<String> = (0..5).map(|i| format!("edge-{i:02}")).collect();
    let provisioned = provisioner.provision_batch(&ids, None);
    let buffered = encode_fleet_bundle(provisioner.fingerprint_config(), &provisioned).to_vec();
    let mut streamed = Vec::new();
    let fingerprints = provisioner
        .provision_bundle_into(&ids, &mut streamed)
        .expect("stream bundle");
    assert_eq!(streamed, buffered, "bundle bytes diverged");
    let expected: Vec<_> = provisioned.iter().map(|p| p.fingerprint.clone()).collect();
    assert_eq!(fingerprints, expected, "registry entries diverged");
}

#[test]
fn scheme_trait_streaming_override_matches_the_default_path() {
    let (original, stats) = quantize("awq", 7);
    let scheme = EmMarkScheme {
        config: wm_cfg(),
        signature_seed: 11,
    };
    // EmMark's override: genuinely streaming.
    let mut streamed = Vec::new();
    scheme
        .insert_into(&original, &stats, &mut ArtifactSink::new(&mut streamed))
        .expect("streaming insert_into");
    // The default implementation's semantics: materialize, insert,
    // stream out.
    let mut expected_model = original.clone();
    scheme.insert(&mut expected_model, &stats).expect("insert");
    let expected = encode_model(&expected_model).to_vec();
    assert_eq!(
        streamed, expected,
        "EmMark's streaming insert_into must equal insert + encode"
    );
}
