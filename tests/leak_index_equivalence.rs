//! Indexed-vs-linear leak identification equivalence: for every
//! quantization scheme in `emmark-quant`, tracing a suspect through the
//! fingerprint-cell inverted index must return the *bit-identical*
//! verdict — same device, same matched-bit counts, same chance-match
//! probability — as the linear scan over every registered device, on
//! honest suspects, near-misses (base watermark only, pristine), and
//! adversarial cross-device splices. The index only narrows candidates;
//! Eq. 8 decides.

use emmark::attacks::overwrite::{overwrite_attack, OverwriteConfig};
use emmark::core::fleet::FleetVerifier;
use emmark::core::provision::FleetProvisioner;
use emmark::core::registry::{
    decode_manifest, encode_manifest, load_sharded_registry, provision_sharded,
};
use emmark::core::watermark::{GridSource, OwnerSecrets, WatermarkConfig};
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

/// Thresholds spanning the interesting regimes: vacuous (every device
/// is a candidate), ordinary, strict, and unreachable (even a perfect
/// match cannot clear it).
const THRESHOLDS: &[f64] = &[0.0, -3.0, -6.0, -40.0, -1000.0];

/// `verifier` carries its leak index, so `identify_leak` takes the
/// indexed path and `identify_leak_linear` is the oracle.
fn assert_indexed_matches_linear<S: GridSource>(
    verifier: &FleetVerifier,
    suspect: &S,
    label: &str,
) {
    for &t in THRESHOLDS {
        let linear = verifier
            .identify_leak_linear(suspect, t)
            .expect("linear identify")
            .map(|(d, r)| (d.device_id.clone(), r));
        let indexed = verifier
            .identify_leak(suspect, t)
            .expect("indexed identify")
            .map(|(d, r)| (d.device_id.clone(), r));
        // Same device *and* the same report — matched-bit counts
        // included, so even the diagnostic output is interchangeable.
        assert_eq!(indexed, linear, "{label} at threshold 10^{t}");
    }
}

#[test]
fn indexed_and_linear_identification_agree_on_every_scheme() {
    let (models, stats) = all_schemes();
    assert_eq!(models.len(), 5, "all five quant schemes covered");
    for qm in models {
        let scheme = qm.scheme.clone();
        let base_cfg = WatermarkConfig {
            bits_per_layer: 4,
            pool_ratio: 10,
            ..Default::default()
        };
        let base = OwnerSecrets::new(qm, stats.clone(), base_cfg, 0xF1EE7);
        let pristine = base.original.clone();
        let fp_cfg = WatermarkConfig {
            bits_per_layer: 3,
            pool_ratio: 10,
            selection_seed: 0xDE11CE,
            ..Default::default()
        };
        let provisioner = FleetProvisioner::new(base, fp_cfg).expect("provisioner");
        let base_only = provisioner.base_deployed().clone();
        let ids: Vec<String> = (0..6).map(|i| format!("{scheme}-dev-{i}")).collect();
        let deployments: Vec<QuantizedModel> = ids
            .iter()
            .map(|id| provisioner.provision_model(id).1)
            .collect();
        let fingerprints = ids
            .iter()
            .map(|id| provisioner.provision_model(id).0)
            .collect();
        let verifier = provisioner.verifier(fingerprints);
        let index = verifier.leak_index();
        let verifier = verifier
            .with_index(index)
            .expect("index covers the registry");

        // Honest suspects: every device's own deployment traces back to
        // it through both paths.
        for (id, leaked) in ids.iter().zip(&deployments) {
            assert_indexed_matches_linear(&verifier, leaked, &format!("{scheme}/{id}"));
            let traced = verifier
                .identify_leak(leaked, -6.0)
                .expect("identify")
                .expect("traced");
            assert_eq!(&traced.0.device_id, id, "{scheme}: wrong device");
            assert_eq!(
                traced.1.matched_bits, traced.1.total_bits,
                "{scheme}: clean leak matches every bit"
            );
        }

        // Near misses: the base-only deployment (ownership watermark,
        // no fingerprint) and the pristine original must not be traced
        // to any device — by either path.
        for (label, suspect) in [("base-only", &base_only), ("pristine", &pristine)] {
            assert_indexed_matches_linear(&verifier, suspect, &format!("{scheme}/{label}"));
            assert!(
                verifier
                    .identify_leak(suspect, -6.0)
                    .expect("identify")
                    .is_none(),
                "{scheme}/{label}: must not be traced"
            );
        }

        // Adversarial cross-device splices: colluding devices stitch
        // half of A's layers onto half of B's. Whatever the verdict,
        // both paths must return it bit for bit.
        let n = deployments[0].layers.len();
        for (a, b) in [(0usize, 1usize), (2, 3), (4, 5)] {
            let mut splice = deployments[a].clone();
            splice.layers[n / 2..].clone_from_slice(&deployments[b].layers[n / 2..]);
            assert_indexed_matches_linear(&verifier, &splice, &format!("{scheme}/splice-{a}-{b}"));
        }

        // Attacked device deployment: partial fingerprint damage.
        let mut attacked = deployments[2].clone();
        overwrite_attack(
            &mut attacked,
            &OverwriteConfig {
                per_layer: 20,
                seed: 7,
            },
        );
        assert_indexed_matches_linear(&verifier, &attacked, &format!("{scheme}/attacked"));
    }
}

#[test]
fn persisted_manifest_index_matches_the_freshly_built_one() {
    let (models, stats) = all_schemes();
    // AWQ INT4 — the paper's main scheme — through the on-disk flow:
    // provision sharded, encode the manifest, decode it back, and trace
    // through the *persisted* index.
    let base_cfg = WatermarkConfig {
        bits_per_layer: 4,
        pool_ratio: 10,
        ..Default::default()
    };
    let base = OwnerSecrets::new(models[1].clone(), stats, base_cfg, 0xF1EE7);
    let fp_cfg = WatermarkConfig {
        bits_per_layer: 3,
        pool_ratio: 10,
        selection_seed: 0xDE11CE,
        ..Default::default()
    };
    let provisioner = FleetProvisioner::new(base.clone(), fp_cfg).expect("provisioner");
    let ids: Vec<String> = (0..9).map(|i| format!("edge-{i:02}")).collect();
    let fleet = provision_sharded(&provisioner, &ids, 3, None).expect("provision");
    let manifest_bytes = encode_manifest(&fleet.manifest);
    let decoded = decode_manifest(&manifest_bytes).expect("decode");

    let registry = load_sharded_registry(&manifest_bytes, |name| {
        fleet
            .shards
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.to_vec())
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, name.to_string()))
    })
    .expect("load");
    let verifier = provisioner.verifier(registry.devices().to_vec());
    assert_eq!(
        &verifier.leak_index(),
        registry.index(),
        "persisted index must equal the freshly built one"
    );
    assert_eq!(registry.index(), &decoded.index);

    let leaked = provisioner.provision_model(&ids[5]).1;
    let indexed = registry
        .clone()
        .into_verifier(base)
        .expect("indexed verifier");
    let traced = indexed
        .identify_leak(&leaked, -6.0)
        .expect("identify")
        .map(|(d, r)| (d.device_id.clone(), r));
    let linear = verifier
        .identify_leak_linear(&leaked, -6.0)
        .expect("linear")
        .map(|(d, r)| (d.device_id.clone(), r));
    assert_eq!(traced, linear);
    assert_eq!(traced.expect("traced").0, ids[5]);
}

#[test]
fn index_over_a_different_population_is_rejected() {
    let (models, stats) = all_schemes();
    let base_cfg = WatermarkConfig {
        bits_per_layer: 4,
        pool_ratio: 10,
        ..Default::default()
    };
    let base = OwnerSecrets::new(models[0].clone(), stats, base_cfg, 0x11);
    let fp_cfg = WatermarkConfig {
        bits_per_layer: 2,
        pool_ratio: 10,
        selection_seed: 0xDE11CE,
        ..Default::default()
    };
    let provisioner = FleetProvisioner::new(base, fp_cfg).expect("provisioner");
    let few: Vec<_> = (0..2)
        .map(|i| provisioner.provision_model(&format!("a{i}")).0)
        .collect();
    let many: Vec<_> = (0..4)
        .map(|i| provisioner.provision_model(&format!("a{i}")).0)
        .collect();
    let small = provisioner.verifier(few);
    let big = provisioner.verifier(many);
    let err = big
        .with_index(small.leak_index())
        .expect_err("population mismatch");
    assert!(err.to_string().contains("devices"), "{err}");
}
