//! Property-based coverage of the EMQM v2 indexed codec: encode/decode
//! round-trips over randomized grids and quantizer settings, truncation
//! at *every* section boundary the layer index names, byte mutations of
//! every quantization scheme's artifact, and the refusal of retired v1
//! artifacts and vaults by every reader. The file-backed sparse reader
//! must accept exactly what the in-memory one accepts, with the same
//! errors and the same cells, and `decode_model` must refuse whatever
//! they refuse, with the same error.

use emmark::core::deploy::{
    artifact_version, decode_model, encode_model, CodecError, SparseArtifact, FORMAT_V2,
};
use emmark::core::fleet::{FleetError, FleetVerifier};
use emmark::core::service::{Blob, Request, Response, Service, ServiceConfig};
use emmark::core::store::{LayerStore, StoreError};
use emmark::core::vault::{decode_secrets, encode_secrets};
use emmark::core::watermark::{OwnerSecrets, WatermarkConfig};
use emmark::nanolm::{ModelConfig, TransformerModel};
use emmark::quant::awq::{awq, AwqConfig};
use emmark::quant::gptq::{gptq, GptqConfig};
use emmark::quant::llm_int8::{llm_int8, OutlierCriterion};
use emmark::quant::rtn::quantize_linear_rtn;
use emmark::quant::smoothquant::{smoothquant, SmoothQuantConfig};
use emmark::quant::{ActQuant, Granularity, QuantizedModel};
use proptest::prelude::*;
use std::fs::File;
use std::path::PathBuf;
use std::sync::OnceLock;

/// A per-test scratch file path (tests in this binary run in parallel).
fn scratch_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "emmark-deploy-v2-{}-{tag}.emqm",
        std::process::id()
    ))
}

/// Opens `path` through the file-backed sparse reader, with its error
/// rendered the way the in-memory reader's codec error renders.
fn open_file_backed(path: &PathBuf) -> Result<SparseArtifact<'static>, String> {
    SparseArtifact::open_file(File::open(path).expect("open scratch file")).map_err(|e| match e {
        StoreError::Codec(e) => e.to_string(),
        other => format!("i/o: {other}"),
    })
}

/// Both sparse sources over `bytes` agree: same acceptance, same error,
/// same index and cells. The full decoder refuses whatever they refuse,
/// with the same error, and beyond that only grid values outside their
/// bit width.
fn assert_sources_agree(bytes: &[u8], path: &PathBuf, what: &str) {
    std::fs::write(path, bytes).expect("write scratch file");
    let in_memory = SparseArtifact::open(bytes).map_err(|e| e.to_string());
    let file_backed = open_file_backed(path);
    match (&in_memory, decode_model(bytes)) {
        (Err(open), decoded) => assert_eq!(
            decoded.err().map(|e| e.to_string()).as_ref(),
            Some(open),
            "{what}"
        ),
        (Ok(_), Err(CodecError::Corrupt { msg, .. })) if msg.contains("storage range") => {}
        (Ok(_), Err(e)) => panic!("{what}: open accepts but decode_model refuses: {e}"),
        (Ok(_), Ok(_)) => {}
    }
    match (&in_memory, &file_backed) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.layer_index(), b.layer_index(), "{what}");
            assert_eq!((a.config(), a.scheme()), (b.config(), b.scheme()), "{what}");
            for l in 0..a.layer_count() {
                let cells = a.layer_index()[l].cells();
                for f in (0..cells).step_by(97).chain([cells - 1]) {
                    assert_eq!(a.q_cell(l, f), b.q_cell(l, f), "{what}: cell ({l}, {f})");
                }
            }
            b.check_reads().expect("no read failed");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{what}"),
        _ => panic!(
            "{what}: in-memory {:?} but file-backed {:?}",
            in_memory.as_ref().map(|_| ()),
            file_backed.as_ref().map(|_| ())
        ),
    }
}

/// One artifact per quantization scheme in `emmark-quant`, built once.
fn scheme_artifacts() -> &'static [Vec<u8>] {
    static ARTIFACTS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let mut model = TransformerModel::new(ModelConfig::tiny_test());
        let calib: Vec<Vec<u32>> = (0..4u32)
            .map(|s| (0..16u32).map(|i| (i * 7 + s * 3) % 31).collect())
            .collect();
        let stats = model.collect_activation_stats(&calib);
        [
            QuantizedModel::quantize_with(&model, "rtn-int8", |_, lin| {
                quantize_linear_rtn(lin, 8, Granularity::PerOutChannel, ActQuant::None)
            }),
            awq(&model, &stats, &AwqConfig::default()),
            gptq(&mut model.clone(), &calib, &GptqConfig::default()),
            smoothquant(&model, &stats, &SmoothQuantConfig::default()),
            llm_int8(&model, &stats, OutlierCriterion::Quantile(0.9)),
        ]
        .iter()
        .map(|m| encode_model(m).to_vec())
        .collect()
    })
}

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
        // The file-backed reader sees each cut as a file truncated
        // there (cuts visited longest first, one file shrinking).
        let path = scratch_path(&format!("cut-{bits}-{seed}"));
        std::fs::write(&path, &bytes).expect("write scratch file");
        for &cut in cuts.iter().rev() {
            File::options()
                .write(true)
                .open(&path)
                .and_then(|f| f.set_len(cut as u64))
                .expect("truncate");
            let file_err = open_file_backed(&path).err();
            let sparse_err = SparseArtifact::open(&bytes[..cut]).err().map(|e| e.to_string());
            prop_assert_eq!(&file_err, &sparse_err, "cut {}", cut);
        }
        let _ = std::fs::remove_file(&path);
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

    /// Byte mutations of every quantization scheme's artifact: the
    /// file-backed reader accepts exactly when the in-memory reader
    /// does, with the same error, and serves the same cells; the full
    /// decoder judges them alike up to grid value ranges. Half the
    /// mutations land within a few bytes after a section boundary,
    /// where the length words and tags the walk checks live.
    #[test]
    fn byte_mutations_are_judged_alike_by_both_sparse_sources(
        scheme in 0usize..5,
        picks in prop::collection::vec(0u64..u64::MAX, 1..5),
    ) {
        let mut bytes = scheme_artifacts()[scheme].clone();
        let boundaries = SparseArtifact::open(&bytes).expect("open").section_boundaries();
        for pick in &picks {
            let at = if pick % 2 == 0 {
                boundaries[(pick >> 8) as usize % boundaries.len()] + (pick >> 40) as usize % 24
            } else {
                (pick >> 8) as usize
            } % bytes.len();
            bytes[at] ^= ((pick >> 32) as u8).max(1);
        }
        let path = scratch_path(&format!("mutation-{scheme}-{}", picks[0]));
        assert_sources_agree(&bytes, &path, &format!("scheme {scheme}, picks {picks:?}"));
        let _ = std::fs::remove_file(&path);
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
        ("SparseArtifact::open_file", {
            let path = scratch_path("v1");
            std::fs::write(&path, &v1_artifact).expect("write scratch file");
            let refusal = open_file_backed(&path).err();
            let _ = std::fs::remove_file(&path);
            refusal
        }),
        ("SparseArtifact::open_file + load_layer", {
            let path = scratch_path("v1-load");
            std::fs::write(&path, &v1_artifact).expect("write scratch file");
            let loaded = SparseArtifact::open_file(File::open(&path).expect("open scratch file"))
                .and_then(|artifact| artifact.load_layer(0).map(|_| ()));
            let _ = std::fs::remove_file(&path);
            match loaded {
                Err(StoreError::Codec(e)) => Some(e.to_string()),
                _ => None,
            }
        }),
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

#[test]
fn intact_artifacts_of_every_scheme_read_alike_from_both_sources() {
    for (scheme, bytes) in scheme_artifacts().iter().enumerate() {
        let path = scratch_path(&format!("intact-{scheme}"));
        assert_sources_agree(bytes, &path, &format!("scheme {scheme}"));
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn vaults_with_bytes_after_the_last_section_are_refused() {
    let model = build_model(4, Granularity::PerOutChannel, ActQuant::None, 7);
    let mut fp = TransformerModel::new({
        let mut c = ModelConfig::tiny_test();
        c.init_seed = 7;
        c
    });
    let stats = fp.collect_activation_stats(&[vec![1u32, 2, 3, 4, 5, 6, 7, 8]]);
    let cfg = WatermarkConfig {
        bits_per_layer: 4,
        pool_ratio: 10,
        ..Default::default()
    };
    let secrets = OwnerSecrets::new(model, stats, cfg, 0x7A11);
    let vault = encode_secrets(&secrets).to_vec();
    let key_len = 4 + 8 + 4 + secrets.original.layer_count() * (4 + 8 * 4) + 8;
    let keyless = &vault[..vault.len() - key_len];
    assert!(
        decode_secrets(keyless).is_ok(),
        "keyless vaults stay readable"
    );
    let path = scratch_path("trailing-vault");
    for (base, trailer) in [(&vault[..], 14usize), (keyless, 14), (&vault[..], 1)] {
        let mut evil = base.to_vec();
        evil.extend(std::iter::repeat_n(0xA5u8, trailer));
        let err = decode_secrets(&evil).expect_err("trailing bytes must be refused");
        // The error names the section after which the bytes sit and
        // where: a key section's end, or a tag that is not a key's.
        match &err {
            CodecError::Corrupt {
                section: emmark::core::deploy::Section::VaultKey,
                offset,
                msg,
            } => {
                let at_key_end = *offset == base.len() && msg.contains("trailing bytes");
                let bad_tag = base.len() == keyless.len() && msg.contains("section tag");
                assert!(at_key_end || bad_tag, "{err}");
            }
            CodecError::Truncated {
                section: emmark::core::deploy::Section::VaultKey,
                ..
            } => assert_eq!(base.len(), keyless.len(), "{err}"),
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("vault key section"), "{err}");
        std::fs::write(&path, &evil).expect("write scratch file");
        let opened = emmark::core::fingerprint::Family::open(File::open(&path).expect("open"));
        match opened {
            Err(StoreError::Codec(e)) => assert_eq!(e, err),
            other => panic!("Family::open accepted trailing bytes: {:?}", other.err()),
        }
    }
    let _ = std::fs::remove_file(&path);
}
