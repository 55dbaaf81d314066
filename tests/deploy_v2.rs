//! Property-based coverage of the EMQM v2 indexed codec: encode/decode
//! round-trips over randomized grids and quantizer settings, truncation
//! at *every* section boundary the layer index names, and the refusal
//! of retired v1 artifacts and vaults by every reader.

use emmark::core::deploy::{
    artifact_version, decode_model, encode_model, CodecError, SparseArtifact, FORMAT_V2,
};
use emmark::core::fleet::{FleetError, FleetVerifier};
use emmark::core::service::{Blob, Request, Response, Service, ServiceConfig};
use emmark::core::store::{ArtifactLayerStore, StoreError};
use emmark::core::vault::{decode_secrets, encode_secrets};
use emmark::core::watermark::{OwnerSecrets, WatermarkConfig};
use emmark::nanolm::{ModelConfig, TransformerModel};
use emmark::quant::rtn::quantize_linear_rtn;
use emmark::quant::{ActQuant, Granularity, QuantizedModel};
use proptest::prelude::*;

/// A quantized tiny model parameterized by the codec-relevant axes:
/// bit width, scale granularity, activation handling, and init seed.
fn build_model(bits: u8, gran: Granularity, act: ActQuant, seed: u64) -> QuantizedModel {
    let mut cfg = ModelConfig::tiny_test();
    cfg.init_seed = seed;
    let model = TransformerModel::new(cfg);
    QuantizedModel::quantize_with(&model, "rtn-prop", |_, lin| {
        quantize_linear_rtn(lin, bits, gran, act)
    })
}

fn granularities() -> Vec<Granularity> {
    vec![
        Granularity::PerTensor,
        Granularity::PerOutChannel,
        Granularity::Grouped { group_size: 4 },
        Granularity::Grouped { group_size: 8 },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// v2 round-trips are bit-exact for any quantizer setting, and the
    /// sparse reader agrees with the decoded grid cell for cell.
    #[test]
    fn v2_roundtrip_is_bit_exact(
        bits in prop::sample::select(vec![4u8, 8]),
        gran in prop::sample::select(granularities()),
        act in prop::sample::select(vec![ActQuant::None, ActQuant::Int8PerToken]),
        seed in 0u64..1_000_000,
    ) {
        let model = build_model(bits, gran, act, seed);
        let bytes = encode_model(&model);
        prop_assert_eq!(artifact_version(&bytes).unwrap(), FORMAT_V2);
        let back = decode_model(&bytes).expect("decode");
        prop_assert!(model.same_weights(&back));
        prop_assert_eq!(&model.cfg, &back.cfg);
        prop_assert_eq!(&model.scheme, &back.scheme);
        for (l, layer) in back.layers.iter().enumerate() {
            prop_assert_eq!(layer.granularity(), model.layers[l].granularity());
            prop_assert_eq!(layer.act_quant(), model.layers[l].act_quant());
        }

        let sparse = SparseArtifact::open(&bytes).expect("open");
        prop_assert_eq!(sparse.layer_count(), model.layer_count());
        for (l, layer) in model.layers.iter().enumerate() {
            let view = sparse.layer_grid(l);
            prop_assert_eq!(view.len(), layer.len());
            // Probe a deterministic scatter of cells, not just 0.
            for f in (0..layer.len()).step_by(7) {
                prop_assert_eq!(view.q_at_flat(f), layer.q_at_flat(f));
            }
        }
    }

    /// Truncating a v2 artifact at (and just after) every section
    /// boundary the index names is a clean codec error — never a panic,
    /// never a bogus success.
    #[test]
    fn v2_truncation_at_every_section_boundary_errors_cleanly(
        bits in prop::sample::select(vec![4u8, 8]),
        gran in prop::sample::select(granularities()),
        seed in 0u64..1_000_000,
    ) {
        let model = build_model(bits, gran, ActQuant::None, seed);
        let bytes = encode_model(&model);
        let sparse = SparseArtifact::open(&bytes).expect("open");
        let mut cuts: Vec<usize> = sparse
            .section_boundaries()
            .into_iter()
            .flat_map(|b| [b, b + 1, b.saturating_sub(1)])
            .filter(|&c| c < bytes.len())
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        for cut in cuts {
            let err = decode_model(&bytes[..cut]).expect_err("truncated decode");
            prop_assert!(
                matches!(err, CodecError::Truncated { .. } | CodecError::Corrupt { .. }),
                "cut {cut}: {err:?}"
            );
            // The sparse reader rejects every truncation too — its
            // structural walk requires the full body to be present, so
            // a damaged artifact can never be "verified" silently.
            let err = SparseArtifact::open(&bytes[..cut]).expect_err("truncated open");
            prop_assert!(
                matches!(err, CodecError::Truncated { .. } | CodecError::Corrupt { .. }),
                "sparse cut {cut}: {err:?}"
            );
        }
    }

}

/// `bytes` (an EMQM artifact or an EMWS vault) behind a retired
/// version-1 header.
fn with_version_1(bytes: &[u8]) -> Vec<u8> {
    let mut v1 = bytes.to_vec();
    v1[4..8].copy_from_slice(&1u32.to_le_bytes());
    v1
}

#[test]
fn retired_v1_artifacts_and_vaults_are_refused_with_bad_version() {
    let model = build_model(8, Granularity::PerOutChannel, ActQuant::None, 42);
    let mut fp = TransformerModel::new({
        let mut c = ModelConfig::tiny_test();
        c.init_seed = 42;
        c
    });
    let stats = fp.collect_activation_stats(&[vec![1u32, 2, 3, 4, 5, 6, 7, 8]]);
    let cfg = WatermarkConfig {
        bits_per_layer: 4,
        pool_ratio: 10,
        ..Default::default()
    };
    let secrets = OwnerSecrets::new(model, stats, cfg, 0x5EC2);
    let deployed = encode_model(&secrets.watermark_for_deployment().expect("insert"));
    let vault = encode_secrets(&secrets);
    let v1_artifact = with_version_1(&deployed);
    let v1_vault = with_version_1(&vault);
    let verifier = FleetVerifier::from_parts(secrets, cfg, Vec::new()).expect("verifier");
    let service = Service::start(ServiceConfig {
        workers: 0,
        ..ServiceConfig::default()
    });
    let service_verify = |secrets: &[u8], suspect: &[u8]| match service.request(
        1,
        &Request::Verify {
            secrets: Blob::Inline(secrets.to_vec()),
            suspect: Blob::Inline(suspect.to_vec()),
            log10_threshold: -9.0,
        },
    ) {
        Response::Error { message } => Some(message),
        _ => None,
    };

    let refusals: Vec<(&str, Option<String>)> = vec![
        (
            "decode_model",
            decode_model(&v1_artifact).err().map(|e| e.to_string()),
        ),
        (
            "decode_secrets",
            decode_secrets(&v1_vault).err().map(|e| e.to_string()),
        ),
        (
            "SparseArtifact::open",
            SparseArtifact::open(&v1_artifact)
                .err()
                .map(|e| e.to_string()),
        ),
        (
            "ArtifactLayerStore::open",
            match ArtifactLayerStore::open(std::io::Cursor::new(&v1_artifact)) {
                Err(StoreError::Codec(e)) => Some(e.to_string()),
                _ => None,
            },
        ),
        (
            "FleetVerifier::verify_artifact",
            match verifier.verify_artifact(&v1_artifact, -6.0) {
                Err(FleetError::Codec(e)) => Some(e.to_string()),
                _ => None,
            },
        ),
        (
            "service Verify (v1 suspect)",
            service_verify(&vault, &v1_artifact),
        ),
        (
            "service Verify (v1 vault)",
            service_verify(&v1_vault, &deployed),
        ),
    ];
    let expected = CodecError::BadVersion(1).to_string();
    for (reader, refusal) in refusals {
        assert_eq!(refusal.as_deref(), Some(expected.as_str()), "{reader}");
    }
    // The same inputs at version 2 are accepted.
    assert_eq!(artifact_version(&deployed).expect("version"), FORMAT_V2);
    assert_eq!(service_verify(&vault, &deployed), None);
}
