//! Sparse-path equivalence suite: for every quantization scheme in
//! `emmark-quant`, watermark extraction through a
//! [`SparseArtifact`](emmark::core::deploy::SparseArtifact) (random
//! byte access into the v2 artifact) must produce the *bit-identical*
//! [`ExtractionReport`] the full-decode path produces — on watermarked,
//! pristine, and attacked suspects — and a file-backed sparse artifact
//! must give the verdicts an in-memory one gives.

use emmark::attacks::overwrite::{overwrite_attack, OverwriteConfig};
use emmark::core::deploy::{decode_model, encode_model, SparseArtifact};
use emmark::core::provision::FleetProvisioner;
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

#[test]
fn file_backed_and_in_memory_suspects_get_identical_verdicts() {
    let (models, stats) = all_schemes();
    let fp_cfg = WatermarkConfig {
        bits_per_layer: 3,
        pool_ratio: 10,
        selection_seed: 0xDE11CE,
        ..Default::default()
    };
    for (k, qm) in models.into_iter().enumerate() {
        let scheme = qm.scheme.clone();
        let secrets = OwnerSecrets::new(qm, stats.clone(), wm_cfg(), 0xF11E);
        let provisioner = FleetProvisioner::new(secrets.clone(), fp_cfg).expect("provisioner");
        let devices: Vec<_> = (0..4)
            .map(|d| provisioner.provision_artifact(&format!("dev-{d}")))
            .collect();
        let linear = provisioner.verifier(devices.iter().map(|d| d.fingerprint.clone()).collect());
        let indexed = linear
            .clone()
            .with_index(linear.leak_index())
            .expect("index");
        let mut attacked = decode_model(&devices[2].artifact).expect("decode");
        overwrite_attack(
            &mut attacked,
            &OverwriteConfig {
                per_layer: 20,
                seed: 3,
            },
        );
        let suspects = [
            ("leaked", devices[2].artifact.clone()),
            ("attacked", encode_model(&attacked).to_vec()),
            ("pristine", encode_model(&secrets.original).to_vec()),
        ];
        for (label, bytes) in suspects {
            let path = std::env::temp_dir().join(format!(
                "emmark-sparse-eq-{}-{k}-{label}.emqm",
                std::process::id()
            ));
            std::fs::write(&path, &bytes).expect("write suspect");
            let in_memory = SparseArtifact::open(&bytes).expect("open");
            let file = SparseArtifact::open_file(std::fs::File::open(&path).expect("reopen"))
                .expect("open file-backed");
            let what = format!("{scheme}/{label}");
            assert_eq!(
                linear.ownership_report(&in_memory).expect("ownership"),
                linear.ownership_report(&file).expect("ownership"),
                "{what}: ownership_report"
            );
            for verifier in [&linear, &indexed] {
                assert_eq!(
                    verifier.identify_leak(&in_memory, -6.0).expect("identify"),
                    verifier.identify_leak(&file, -6.0).expect("identify"),
                    "{what}: identify_leak"
                );
            }
            assert_eq!(
                indexed
                    .identify_leak_linear(&in_memory, -6.0)
                    .expect("linear"),
                indexed.identify_leak_linear(&file, -6.0).expect("linear"),
                "{what}: identify_leak_linear"
            );
            file.check_reads().expect("no read failed");
            let _ = std::fs::remove_file(&path);
        }
    }
}

#[test]
fn cli_refuses_a_suspect_truncated_into_a_probed_grid() {
    use emmark::core::registry::{encode_manifest, provision_sharded_into};
    use emmark::core::vault::encode_secrets;

    let (models, stats) = all_schemes();
    let secrets = OwnerSecrets::new(models[1].clone(), stats, wm_cfg(), 0xC11);
    let fp_cfg = WatermarkConfig {
        bits_per_layer: 3,
        pool_ratio: 10,
        ..Default::default()
    };
    let provisioner = FleetProvisioner::new(secrets.clone(), fp_cfg).expect("provisioner");
    let dir = std::env::temp_dir().join(format!("emmark-cli-trunc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ids = ["d0", "d1", "d2"];
    let manifest = provision_sharded_into(&provisioner, &ids, 1, Some(1), |name, bytes| {
        std::fs::write(dir.join(name), bytes)
    })
    .expect("provision");
    std::fs::write(dir.join("fleet.emfm"), encode_manifest(&manifest)).expect("manifest");
    std::fs::write(dir.join("secrets.emws"), encode_secrets(&secrets)).expect("vault");
    let leak = provisioner.provision_artifact("d1").artifact;
    let index = SparseArtifact::open(&leak)
        .expect("open")
        .layer_index()
        .to_vec();
    let suspect = dir.join("leak.emqm");
    let path = |p: &std::path::Path| p.display().to_string();
    let run = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_emmark"))
            .args(args)
            .output()
            .expect("run emmark")
    };
    let (vault, fleet, leaked) = (
        path(&dir.join("secrets.emws")),
        path(&dir.join("fleet.emfm")),
        path(&suspect),
    );
    let verify = ["verify", "--secrets", &vault, "--suspect", &leaked];
    let identify = [
        "identify-leak",
        "--secrets",
        &vault,
        "--manifest",
        &fleet,
        "--suspect",
        &leaked,
    ];
    let identify_linear = [&identify[..], &["--linear"]].concat();
    let commands: [&[&str]; 3] = [&verify, &identify, &identify_linear];
    for truncated in [false, true] {
        let len = if truncated {
            index[6].q_offset + 5
        } else {
            leak.len()
        };
        std::fs::write(&suspect, &leak[..len]).expect("write suspect");
        for args in commands {
            let out = run(args);
            assert_eq!(
                out.status.success(),
                !truncated,
                "{args:?} (truncated: {truncated}): {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
