//! Sparse-path equivalence suite: for every quantization scheme in
//! `emmark-quant`, watermark extraction through a
//! [`SparseArtifact`](emmark::core::deploy::SparseArtifact) (random
//! byte access into the v2 artifact) must produce the *bit-identical*
//! [`ExtractionReport`] the full-decode path produces — on watermarked,
//! pristine, and attacked suspects.

use emmark::attacks::overwrite::{overwrite_attack, OverwriteConfig};
use emmark::core::deploy::{decode_model, encode_model, SparseArtifact};
use emmark::core::watermark::{OwnerSecrets, WatermarkConfig};
use emmark::nanolm::model::ActivationStats;
use emmark::nanolm::{ModelConfig, TransformerModel};
use emmark::quant::awq::{awq, AwqConfig};
use emmark::quant::gptq::{gptq, GptqConfig};
use emmark::quant::llm_int8::{llm_int8, OutlierCriterion};
use emmark::quant::rtn::quantize_linear_rtn;
use emmark::quant::smoothquant::{smoothquant, SmoothQuantConfig};
use emmark::quant::{ActQuant, Granularity, QuantizedModel};

/// One quantized model per scheme shipped in `emmark-quant`, all from
/// the same trained-free tiny transformer and calibration set.
fn all_schemes() -> (Vec<QuantizedModel>, ActivationStats) {
    let mut model = TransformerModel::new(ModelConfig::tiny_test());
    let calib: Vec<Vec<u32>> = (0..4u32)
        .map(|s| (0..16u32).map(|i| (i * 7 + s * 3) % 31).collect())
        .collect();
    let stats = model.collect_activation_stats(&calib);
    let models = vec![
        QuantizedModel::quantize_with(&model, "rtn-int8", |_, lin| {
            quantize_linear_rtn(lin, 8, Granularity::PerOutChannel, ActQuant::None)
        }),
        awq(&model, &stats, &AwqConfig::default()),
        gptq(&mut model.clone(), &calib, &GptqConfig::default()),
        smoothquant(&model, &stats, &SmoothQuantConfig::default()),
        llm_int8(&model, &stats, OutlierCriterion::Quantile(0.9)),
    ];
    (models, stats)
}

fn wm_cfg() -> WatermarkConfig {
    WatermarkConfig {
        bits_per_layer: 4,
        pool_ratio: 10,
        ..Default::default()
    }
}

#[test]
fn sparse_and_full_decode_extraction_agree_on_every_scheme() {
    let (models, stats) = all_schemes();
    assert_eq!(models.len(), 5, "all five quant schemes covered");
    for qm in models {
        let scheme = qm.scheme.clone();
        let secrets = OwnerSecrets::new(qm, stats.clone(), wm_cfg(), 0xABCD);
        let deployed = secrets.watermark_for_deployment().expect("insert");

        // Three suspects: the watermarked artifact, the pristine
        // original (0% WER), and an attacked copy (partial WER).
        let mut attacked = deployed.clone();
        overwrite_attack(
            &mut attacked,
            &OverwriteConfig {
                per_layer: 20,
                seed: 7,
            },
        );
        for (label, suspect) in [
            ("deployed", &deployed),
            ("pristine", &secrets.original),
            ("attacked", &attacked),
        ] {
            let bytes = encode_model(suspect);
            let sparse = SparseArtifact::open(&bytes).expect("open");
            let full = decode_model(&bytes).expect("decode");
            let sparse_report = secrets.verify(&sparse).expect("sparse verify");
            let full_report = secrets.verify(&full).expect("full verify");
            assert_eq!(
                sparse_report, full_report,
                "{scheme}/{label}: sparse and full reports diverged"
            );
            let in_memory = secrets.verify(suspect).expect("in-memory verify");
            assert_eq!(
                sparse_report, in_memory,
                "{scheme}/{label}: sparse and in-memory reports diverged"
            );
        }
    }
}

#[test]
fn sparse_open_touches_only_the_header_not_the_grids() {
    // Corrupting grid bytes must not affect open() or the metadata —
    // only the cells actually probed. (This is what makes the fleet
    // batch loop O(watermark bits) per artifact.)
    let (models, stats) = all_schemes();
    let secrets = OwnerSecrets::new(models[0].clone(), stats, wm_cfg(), 0x11);
    let deployed = secrets.watermark_for_deployment().expect("insert");
    let bytes = encode_model(&deployed).to_vec();
    let sparse = SparseArtifact::open(&bytes).expect("open");
    let last = *sparse.layer_index().last().expect("layers");
    // Flip a grid byte in the last layer: open still succeeds with the
    // same index, and only reports touching that layer's cells change.
    let mut tampered = bytes.clone();
    tampered[last.q_offset] ^= 0x7F;
    let reopened = SparseArtifact::open(&tampered).expect("open tampered");
    assert_eq!(reopened.layer_index(), sparse.layer_index());
    assert_eq!(reopened.scheme(), sparse.scheme());
    assert_ne!(
        reopened.q_cell(sparse.layer_count() - 1, 0),
        sparse.q_cell(sparse.layer_count() - 1, 0)
    );
}
