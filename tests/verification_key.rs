//! The derived verification key (DESIGN.md §5, invariant 13): a vault's
//! key must equal the ownership locations recomputed from (W, A_f, α,
//! β, d) and a manifest's pools the recomputed fingerprint pools, for
//! every quantization scheme; verdicts through the keyed path
//! ([`Family::open`] on a keyed vault, pools from a version 2 manifest)
//! must be bit-identical to the recompute paths (decoded secrets, a
//! keyless vault whose key is derived at open, version 1 manifests) on
//! honest, near-miss, pristine and attacked suspects; provisioning
//! through either vault must write byte-identical fleets; and a key or
//! pools that do not belong to their vault or fingerprint config — a
//! flipped byte, a splice — are errors, never verdicts or fleets. A
//! vault opened from a file and the same bytes opened from memory (the
//! daemon's open) give the same error or the same reports, however the
//! vault was damaged; for a keyless vault, so do `decode_secrets` and
//! [`OwnerSecrets::verify`].

use emmark::attacks::adaptive::{adaptive_attack, AdaptiveConfig};
use emmark::attacks::overwrite::{overwrite_attack, OverwriteConfig};
use emmark::attacks::pruning::prune_attack;
use emmark::attacks::requant::roundtrip_same_grid;
use emmark::attacks::rewatermark::{rewatermark_attack, RewatermarkConfig};
use emmark::core::deploy::{encode_model, CodecError, SparseArtifact};
use emmark::core::fingerprint::Family;
use emmark::core::fleet::FleetVerifier;
use emmark::core::provision::{FleetProvisioner, ProvisionedDevice};
use emmark::core::registry::{
    decode_manifest, encode_manifest, load_sharded_registry, provision_sharded, FingerprintPools,
    ShardedFleet, ShardedRegistry,
};
use emmark::core::service::{Blob, ReportSummary, Request, Response, Service, ServiceConfig};
use emmark::core::store::StoreError;
use emmark::core::vault::{audit_key, decode_secrets, encode_secrets};
use emmark::core::watermark::{locate_watermark, GridSource, OwnerSecrets, WatermarkConfig};
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
use std::path::PathBuf;
use std::process::Output;
use std::sync::{Arc, OnceLock};

/// Thresholds of the identification comparisons: vacuous, ordinary,
/// strict.
const THRESHOLDS: &[f64] = &[0.0, -6.0, -40.0];

/// One quantized model per scheme in `emmark-quant`, with its stats.
fn all_schemes() -> &'static (Vec<QuantizedModel>, ActivationStats) {
    static SCHEMES: OnceLock<(Vec<QuantizedModel>, ActivationStats)> = OnceLock::new();
    SCHEMES.get_or_init(|| {
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
    })
}

/// The owner's secrets for one scheme (INT8 grids carry more bits per
/// layer, as in the attack matrix).
fn secrets_for(qm: &QuantizedModel, stats: &ActivationStats, seed: u64) -> OwnerSecrets {
    let cfg = WatermarkConfig {
        bits_per_layer: if qm.layers[0].bits() == 8 { 8 } else { 4 },
        pool_ratio: 10,
        ..Default::default()
    };
    OwnerSecrets::new(qm.clone(), stats.clone(), cfg, seed)
}

fn fp_config(seed: u64) -> WatermarkConfig {
    WatermarkConfig {
        bits_per_layer: 2,
        pool_ratio: 10,
        selection_seed: seed,
        ..Default::default()
    }
}

/// A per-test scratch directory (tests in this binary run in parallel).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("emmark-key-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    fn write(&self, name: &str, bytes: &[u8]) -> PathBuf {
        let path = self.0.join(name);
        std::fs::write(&path, bytes).expect("write scratch file");
        path
    }

    /// Opens `bytes` as a vault file through [`Family::open`].
    fn family(&self, name: &str, bytes: &[u8]) -> Result<Family, StoreError> {
        let path = self.write(name, bytes);
        Family::open(File::open(path).expect("open scratch file"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Per suspect, an ownership report or an error.
type Answers = Vec<Result<String, String>>;

/// The answers of a family opened from `vault`: from a file
/// ([`Family::open`]), and from memory — a zero-worker daemon, which
/// opens the vault bytes it is sent.
fn file_and_memory_answers(
    scratch: &Scratch,
    vault: &[u8],
    suspects: &[Vec<u8>],
) -> (Answers, Answers) {
    let opened = scratch.family("answer.emws", vault);
    let from_file = (suspects.iter())
        .map(|suspect| {
            let family = opened.as_ref().map_err(|e| e.to_string())?;
            let sparse = SparseArtifact::open(suspect).map_err(|e| e.to_string())?;
            let report = family
                .ownership_report(&sparse)
                .map_err(|e| e.to_string())?;
            family.check_reads().map_err(|e| e.to_string())?;
            Ok(format!("{:?}", ReportSummary::from(&report)))
        })
        .collect();
    let service = Service::start(ServiceConfig {
        workers: 0,
        ..ServiceConfig::default()
    });
    let from_memory = (suspects.iter().enumerate())
        .map(|(i, suspect)| {
            let request = Request::Verify {
                secrets: Blob::Inline(vault.to_vec()),
                suspect: Blob::Inline(suspect.clone()),
                log10_threshold: -9.0,
            };
            match service.request(i as u64, &request) {
                Response::Verify { report, .. } => Ok(format!("{report:?}")),
                Response::Error { message } => Err(message),
                other => panic!("unexpected response {other:?}"),
            }
        })
        .collect();
    (from_file, from_memory)
}

/// The answers of `vault` decoded ([`decode_secrets`]) and checked with
/// [`OwnerSecrets::verify`], which locates over the decoded model.
fn decoded_answers(vault: &[u8], suspects: &[Vec<u8>]) -> Answers {
    let secrets = decode_secrets(vault).map_err(|e| e.to_string());
    (suspects.iter())
        .map(|suspect| {
            let secrets = secrets.as_ref().map_err(Clone::clone)?;
            let sparse = SparseArtifact::open(suspect).map_err(|e| e.to_string())?;
            let report = secrets.verify(&sparse).map_err(|e| e.to_string())?;
            Ok(format!("{:?}", ReportSummary::from(&report)))
        })
        .collect()
}

/// A device artifact and the base-only near miss of `secrets`' fleet.
fn device_and_near_miss(secrets: &OwnerSecrets) -> Vec<Vec<u8>> {
    let p = FleetProvisioner::new(secrets.clone(), fp_config(0xA11)).expect("provisioner");
    vec![
        p.provision_artifact("edge").artifact,
        p.base_artifact().to_vec(),
    ]
}

/// The vault without its key section: everything through the embedded
/// model.
fn keyless(vault: &[u8], secrets: &OwnerSecrets) -> Vec<u8> {
    let stats: usize = (secrets.stats.per_layer.iter())
        .map(|l| 4 + 8 * l.mean_abs.len())
        .sum();
    let model = encode_model(&secrets.original).len();
    let end = 8 + 32 + 4 + secrets.signature.len() + 4 + stats + 4 + model;
    vault[..end].to_vec()
}

fn load(manifest: &[u8], fleet: &ShardedFleet) -> ShardedRegistry {
    load_sharded_registry(manifest, |name| {
        Ok(fleet
            .shards
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.to_vec())
            .expect("shard"))
    })
    .expect("load")
}

/// The engine `fleet-verify` and `identify-leak` build over a loaded
/// manifest: the family's cache over the manifest's pools, with its
/// leak index attached.
fn family_verifier(registry: ShardedRegistry, family: Family) -> Result<FleetVerifier, StoreError> {
    let (fp_cfg, devices, index, pools) = registry.into_parts();
    Ok(FleetVerifier::for_family(family, fp_cfg, devices, pools.as_ref())?.with_index(index)?)
}

#[test]
fn vault_keys_and_manifest_pools_equal_the_recomputation_on_every_scheme() {
    let scratch = Scratch::new("recompute");
    let (models, stats) = all_schemes();
    assert_eq!(models.len(), 5, "all five quant schemes covered");
    for (i, qm) in models.iter().enumerate() {
        let secrets = secrets_for(qm, stats, 0x5EC2 + i as u64);
        let recomputed =
            locate_watermark(&secrets.original, &secrets.stats, &secrets.config).expect("locate");
        let vault = encode_secrets(&secrets);
        let audit = audit_key(&vault).expect("audit");
        assert_eq!(audit.key.as_ref(), Some(&recomputed), "{}", qm.scheme);
        assert_eq!(audit.recomputed, recomputed);
        assert_eq!(audit.first_mismatch(), None);
        let family = scratch.family("keyed.emws", &vault).expect("open keyed");
        assert!(family.is_keyed());
        assert_eq!(family.locations(), &recomputed);
        let bare = keyless(&vault, &secrets);
        let audit = audit_key(&bare).expect("audit keyless");
        assert_eq!((audit.key, audit.recomputed), (None, recomputed.clone()));
        let derived = scratch.family("keyless.emws", &bare).expect("open");
        assert!(!derived.is_keyed());
        assert_eq!(
            derived.locations(),
            &recomputed,
            "{}: derived key",
            qm.scheme
        );

        let fp = fp_config(0xDE11CE);
        let provisioner = FleetProvisioner::new(secrets.clone(), fp).expect("provisioner");
        let ids: Vec<String> = (0..5).map(|d| format!("edge-{d}")).collect();
        let fleet = provision_sharded(&provisioner, &ids, 2, None).expect("provision");
        let manifest = decode_manifest(&encode_manifest(&fleet.manifest)).expect("decode");
        let derived = FingerprintPools::derive(secrets.clone(), fp).expect("derive");
        assert_eq!(manifest.pools.as_ref(), Some(&derived), "{}", qm.scheme);
    }
}

/// Every suspect the verdict comparison runs: device artifacts, the
/// base-only near miss, the pristine original, and attacked device
/// artifacts (the attack matrix's families at proof-surviving strength).
fn suspects(
    secrets: &OwnerSecrets,
    provisioner: &FleetProvisioner,
    ids: &[String],
) -> Vec<(String, QuantizedModel)> {
    let mut out: Vec<(String, QuantizedModel)> = ids
        .iter()
        .map(|id| (id.clone(), provisioner.provision_model(id).1))
        .collect();
    out.push(("near-miss".into(), provisioner.base_deployed().clone()));
    out.push(("pristine".into(), secrets.original.clone()));
    let leaked = provisioner.provision_model(&ids[1]).1;
    let attacked = |name: &str, attack: &dyn Fn(&mut QuantizedModel)| {
        let mut m = leaked.clone();
        attack(&mut m);
        (name.to_string(), m)
    };
    let stats = &secrets.stats;
    out.extend([
        attacked("overwrite", &|m| {
            overwrite_attack(
                m,
                &OverwriteConfig {
                    per_layer: 16,
                    seed: 10,
                },
            );
        }),
        attacked("rewatermark", &|m| {
            let cfg = RewatermarkConfig {
                seed: 163,
                per_layer: 8,
                ..Default::default()
            };
            rewatermark_attack(m, stats, &cfg);
        }),
        attacked("pruning", &|m| {
            prune_attack(m, 0.25);
        }),
        attacked("adaptive", &|m| {
            let cfg = AdaptiveConfig {
                top_k: 8,
                ..Default::default()
            };
            adaptive_attack(m, stats, &cfg);
        }),
        attacked("requant", &|m| *m = roundtrip_same_grid(m)),
    ]);
    out
}

/// Ownership and identification verdicts of `verifier` over `suspect`.
fn verdicts<S: GridSource>(verifier: &FleetVerifier, suspect: &S) -> Vec<String> {
    let mut out = vec![format!("{:?}", verifier.ownership_report(suspect))];
    for &t in THRESHOLDS {
        let indexed = verifier.identify_leak(suspect, t).expect("indexed");
        let linear = verifier.identify_leak_linear(suspect, t).expect("linear");
        out.push(format!("{indexed:?}"));
        out.push(format!("{linear:?}"));
    }
    for d in verifier.devices() {
        out.push(format!("{:?}", verifier.device_report(d, suspect)));
    }
    verifier.check_reads().expect("vault reads");
    out
}

#[test]
fn keyed_and_recompute_verdicts_are_bit_identical() {
    let scratch = Scratch::new("verdicts");
    let (models, stats) = all_schemes();
    for (i, qm) in models.iter().enumerate() {
        let secrets = secrets_for(qm, stats, 0xBEEF + i as u64);
        let vault = encode_secrets(&secrets);
        let bare = keyless(&vault, &secrets);
        let fp = fp_config(0x1DE11 + i as u64);
        let provisioner = FleetProvisioner::new(secrets.clone(), fp).expect("provisioner");
        let ids: Vec<String> = (0..6).map(|d| format!("dev-{d:02}")).collect();
        let fleet = provision_sharded(&provisioner, &ids, 3, None).expect("provision");
        let v2 = encode_manifest(&fleet.manifest);
        let mut v1_manifest = fleet.manifest.clone();
        v1_manifest.pools = None;
        let v1 = encode_manifest(&v1_manifest);

        // The keyed path: key from the vault, pools from the manifest.
        let keyed = scratch.family("keyed.emws", &vault).expect("open keyed");
        assert!(keyed.is_keyed());
        let keyed = family_verifier(load(&v2, &fleet), keyed).expect("keyed verifier");
        // Recompute paths: decoded secrets over the v2 manifest's pools,
        // a keyed vault over a v1 manifest (pools scored from the
        // vault's decoded model), and a keyless vault over a v1 manifest
        // (today's path end to end).
        let decoded = load(&v2, &fleet)
            .into_verifier(secrets.clone())
            .expect("decoded verifier");
        let keyed_v1 = scratch.family("keyed-v1.emws", &vault).expect("open keyed");
        let keyed_v1 =
            family_verifier(load(&v1, &fleet), keyed_v1).expect("keyed vault, v1 manifest");
        let recompute = scratch.family("keyless.emws", &bare).expect("open keyless");
        assert!(!recompute.is_keyed());
        let recompute = family_verifier(load(&v1, &fleet), recompute).expect("recompute verifier");
        // The keyless vault's derived binding is the key's: it takes the
        // pools the keyed vault's provisioning wrote.
        let derived = scratch
            .family("keyless-v2.emws", &bare)
            .expect("open keyless");
        let derived = family_verifier(load(&v2, &fleet), derived).expect("keyless vault, v2 pools");

        for (name, suspect) in suspects(&secrets, &provisioner, &ids) {
            let label = format!("{} / {name}", qm.scheme);
            let expected = verdicts(&recompute, &suspect);
            assert_eq!(verdicts(&keyed, &suspect), expected, "{label}: keyed");
            assert_eq!(verdicts(&decoded, &suspect), expected, "{label}: decoded");
            assert_eq!(verdicts(&keyed_v1, &suspect), expected, "{label}: v1 pools");
            assert_eq!(
                verdicts(&derived, &suspect),
                expected,
                "{label}: derived key"
            );
            assert_eq!(
                format!("{:?}", secrets.verify(&suspect)),
                expected[0],
                "{label}: OwnerSecrets::verify"
            );
            // The same verdicts through a sparse suspect.
            let bytes = encode_model(&suspect);
            let sparse = SparseArtifact::open(&bytes).expect("sparse");
            assert_eq!(
                verdicts(&keyed, &sparse),
                expected,
                "{label}: sparse suspect"
            );
        }
    }
}

/// A vault and the offset where its key section starts.
fn keyed_vault(seed: u64) -> (OwnerSecrets, Vec<u8>, usize) {
    let (models, stats) = all_schemes();
    let secrets = secrets_for(&models[1], stats, seed);
    let vault = encode_secrets(&secrets).to_vec();
    let key_start = keyless(&vault, &secrets).len();
    (secrets, vault, key_start)
}

#[test]
fn a_flipped_key_byte_is_an_error_on_both_readers() {
    let scratch = Scratch::new("flip");
    let (secrets, vault, key_start) = keyed_vault(0xF11E);
    let suspects = device_and_near_miss(&secrets);
    assert!(vault.len() > key_start, "the vault carries a key");
    for at in key_start..vault.len() {
        for mask in [0x01u8, 0x80] {
            let mut evil = vault.clone();
            evil[at] ^= mask;
            let err = decode_secrets(&evil).expect_err("decode_secrets must refuse");
            assert!(
                matches!(
                    err,
                    CodecError::Corrupt { .. } | CodecError::Truncated { .. }
                ),
                "byte {at}: {err:?}"
            );
            let err = scratch
                .family("flip.emws", &evil)
                .expect_err("Family::open must refuse");
            assert!(matches!(err, StoreError::Codec(_)), "byte {at}: {err}");
            // From memory, the same words.
            let (from_file, from_memory) = file_and_memory_answers(&scratch, &evil, &suspects);
            assert_eq!(from_memory, from_file, "byte {at}");
            assert_eq!(from_file[0], Err(err.to_string()), "byte {at}");
        }
    }
}

/// Where the sections of `vault` (the keyed vault of `secrets`) begin:
/// every head field, every stats layer, every section of the embedded
/// artifact, and every field and layer of the key.
fn vault_section_boundaries(vault: &[u8], secrets: &OwnerSecrets, key_start: usize) -> Vec<usize> {
    let sig_end = 8 + 32 + 4 + secrets.signature.len();
    let mut b = vec![0, 4, 8, 8 + 32, 8 + 32 + 4, sig_end];
    let mut at = sig_end + 4;
    for layer in &secrets.stats.per_layer {
        b.push(at);
        at += 4 + 8 * layer.mean_abs.len();
    }
    b.push(at);
    let model_start = at + 4;
    let embedded = SparseArtifact::open(&vault[model_start..key_start]).expect("embedded");
    b.extend(
        embedded
            .section_boundaries()
            .iter()
            .map(|o| model_start + o),
    );
    b.extend([key_start + 4, key_start + 12, key_start + 16]);
    let mut at = key_start + 16;
    for _ in 0..embedded.layer_count() {
        at += 4 + 8 * secrets.config.bits_per_layer;
        b.push(at);
    }
    assert_eq!(at + 8, vault.len(), "the key ends in its checksum");
    b.push(vault.len());
    b.sort_unstable();
    b.dedup();
    b
}

/// The keyless fixture, and a keyed vault and a keyless vault cut at
/// every section boundary, open alike from a file and from memory: the
/// same error, or the same reports on the device and near-miss suspects.
/// The keyless cuts decode and verify alike too.
#[test]
fn file_and_memory_opens_agree_on_the_keyless_fixture_and_every_section_cut() {
    let scratch = Scratch::new("cuts");
    let fixture = |name: &str| {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/keyless_v1");
        std::fs::read(dir.join(name)).expect("fixture")
    };
    let suspects = [
        fixture("leaked-device-0005.emqm"),
        fixture("near-miss-deployed.emqm"),
    ];
    let (from_file, from_memory) =
        file_and_memory_answers(&scratch, &fixture("secrets.emws"), &suspects);
    assert_eq!(from_memory, from_file, "keyless fixture");
    assert!(from_file
        .iter()
        .all(|a| a.as_ref().is_ok_and(|r| r.contains("matched_bits: 52"))));

    let (secrets, vault, key_start) = keyed_vault(0xC07);
    let suspects = device_and_near_miss(&secrets);
    let cuts = vault_section_boundaries(&vault, &secrets, key_start);
    for &cut in &cuts {
        let (from_file, from_memory) = file_and_memory_answers(&scratch, &vault[..cut], &suspects);
        assert_eq!(from_memory, from_file, "cut at {cut}");
        // Only the whole vault and the vault without its key open.
        assert_eq!(
            from_file.iter().all(Result::is_ok),
            cut == key_start || cut == vault.len(),
            "cut at {cut}: {from_file:?}"
        );
    }
    let bare = &vault[..key_start];
    for &cut in cuts.iter().filter(|&&cut| cut <= key_start) {
        let (from_file, from_memory) = file_and_memory_answers(&scratch, &bare[..cut], &suspects);
        assert_eq!(from_memory, from_file, "keyless cut at {cut}");
        let decoded = decoded_answers(&bare[..cut], &suspects);
        assert_eq!(decoded, from_file, "keyless cut at {cut}: decoded");
        assert_eq!(
            from_file.iter().all(Result::is_ok),
            cut == key_start,
            "keyless cut at {cut}: {from_file:?}"
        );
    }
    // A pool ratio asking for more cells than any layer holds (config
    // bytes 28..32): the same error on every reader, and no allocation
    // of that size.
    let mut greedy = bare.to_vec();
    greedy[28..32].copy_from_slice(&u32::MAX.to_le_bytes());
    let (from_file, from_memory) = file_and_memory_answers(&scratch, &greedy, &suspects);
    assert_eq!(from_memory, from_file, "greedy pool");
    assert_eq!(
        decoded_answers(&greedy, &suspects),
        from_file,
        "greedy pool"
    );
    assert!(
        (from_file.iter()).all(|a| a
            .as_ref()
            .is_err_and(|e| e.contains("candidate pool needs"))),
        "{from_file:?}"
    );
}

#[test]
fn a_key_spliced_from_another_vault_is_an_error() {
    let scratch = Scratch::new("splice");
    // Same model and stats, another signature: only the key's binding
    // tells the two keys apart.
    let (_, a, a_key) = keyed_vault(0xA);
    let (_, b, b_key) = keyed_vault(0xB);
    assert_eq!(a_key, b_key, "same layout");
    let mut spliced = a[..a_key].to_vec();
    spliced.extend_from_slice(&b[b_key..]);
    let err = decode_secrets(&spliced).expect_err("spliced key");
    assert!(err.to_string().contains("another vault"), "{err}");
    let err = scratch.family("spliced.emws", &spliced).expect_err("open");
    assert!(err.to_string().contains("another vault"), "{err}");
    // Both unspliced vaults are fine.
    assert!(scratch.family("a.emws", &a).expect("a").is_keyed());
    assert!(scratch.family("b.emws", &b).expect("b").is_keyed());

    // W changed at a key cell (the model bytes edited, key untouched):
    // the binding covers W at every key cell.
    let (secrets, vault, key_start) = keyed_vault(0xC);
    let key = audit_key(&vault).expect("audit").key.expect("keyed");
    let model_start = key_start - encode_model(&secrets.original).len();
    let sparse = SparseArtifact::open(&vault[model_start..key_start]).expect("embedded");
    let entry = sparse.layer_index()[0];
    let mut edited = vault.clone();
    edited[model_start + entry.q_offset + key[0][0]] ^= 0x01;
    let err = decode_secrets(&edited).expect_err("edited W");
    assert!(err.to_string().contains("another vault"), "{err}");
    let err = scratch.family("edited.emws", &edited).expect_err("open");
    assert!(err.to_string().contains("another vault"), "{err}");
}

#[test]
fn pools_from_another_vault_or_fingerprint_config_are_errors() {
    let scratch = Scratch::new("pools");
    let (secrets, vault, _) = keyed_vault(0xD);
    let ids: Vec<String> = (0..4).map(|d| format!("dev-{d}")).collect();
    let provision = |secrets: &OwnerSecrets, fp: WatermarkConfig| {
        let p = FleetProvisioner::new(secrets.clone(), fp).expect("provisioner");
        provision_sharded(&p, &ids, 2, None).expect("provision")
    };
    let fleet = provision(&secrets, fp_config(7));
    let bytes = encode_manifest(&fleet.manifest).to_vec();

    // A flipped byte anywhere in the pools section fails decode.
    let pools_len: usize = 4
        + 8
        + 8
        + (fleet.manifest.pools.as_ref().expect("v2").cells())
            .iter()
            .map(|p| 4 + 8 * p.len())
            .sum::<usize>();
    for at in bytes.len() - pools_len..bytes.len() {
        let mut evil = bytes.clone();
        evil[at] ^= 0x04;
        assert!(decode_manifest(&evil).is_err(), "pools byte {at}");
    }

    // Pools spliced from a manifest of another fingerprint config (same
    // vault, same pool shape, same devices): the checksum covers the
    // config.
    let other = provision(&secrets, fp_config(8));
    let other_bytes = encode_manifest(&other.manifest);
    let mut spliced = bytes[..bytes.len() - pools_len].to_vec();
    spliced.extend_from_slice(&other_bytes[other_bytes.len() - pools_len..]);
    let err = decode_manifest(&spliced).expect_err("foreign pools");
    assert!(err.to_string().contains("checksum"), "{err}");

    // Pools derived from another vault: an error when the verifier is
    // built, whether the vault is keyed or decoded.
    let (stranger, stranger_vault, _) = keyed_vault(0xE);
    let stranger_fleet = provision(&stranger, fp_config(7));
    let manifest = encode_manifest(&stranger_fleet.manifest);
    let family = scratch.family("v.emws", &vault).expect("open");
    let err = family_verifier(load(&manifest, &stranger_fleet), family).expect_err("foreign pools");
    assert!(err.to_string().contains("another vault"), "{err}");
    let err = load(&manifest, &stranger_fleet)
        .into_verifier(secrets.clone())
        .expect_err("foreign pools, decoded");
    assert!(err.to_string().contains("another vault"), "{err}");
    // The pools' own vault is accepted.
    let own = scratch.family("own.emws", &stranger_vault).expect("open");
    assert!(family_verifier(load(&manifest, &stranger_fleet), own).is_ok());
}

/// The vault and the v2 manifest every mutation case starts from, and
/// the vault's device and near-miss suspects.
struct MutationInputs {
    vault: Vec<u8>,
    key_start: usize,
    /// Where the vault's embedded model starts.
    model_start: usize,
    manifest: Vec<u8>,
    pools_start: usize,
    suspects: Vec<Vec<u8>>,
}

fn mutation_inputs() -> &'static MutationInputs {
    static INPUTS: OnceLock<MutationInputs> = OnceLock::new();
    INPUTS.get_or_init(|| {
        let (secrets, vault, key_start) = keyed_vault(0x3);
        let model_start = key_start - encode_model(&secrets.original).len();
        let suspects = device_and_near_miss(&secrets);
        let p = FleetProvisioner::new(secrets, fp_config(9)).expect("provisioner");
        let ids = ["a", "b", "c"];
        let fleet = provision_sharded(&p, &ids, 2, None).expect("provision");
        let manifest = encode_manifest(&fleet.manifest).to_vec();
        let pools_len: usize = 4
            + 8
            + 8
            + (fleet.manifest.pools.as_ref().expect("v2").cells())
                .iter()
                .map(|p| 4 + 8 * p.len())
                .sum::<usize>();
        let pools_start = manifest.len() - pools_len;
        MutationInputs {
            vault,
            key_start,
            model_start,
            manifest,
            pools_start,
            suspects,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Byte mutations anywhere in a keyed vault and a v2 manifest, with
    /// half the cases aimed at the key and pools sections: never a
    /// panic, and a mutated key or pools section never decodes. The
    /// mutated vault opens alike from a file and from memory. So does
    /// the vault without its key, with half the cases aimed at the head
    /// its key is derived from, and it decodes and verifies alike too.
    #[test]
    fn byte_mutations_of_vaults_and_manifests_never_panic(
        pick in 0usize..1_000_000,
        tail in 0usize..2,
        value in 0usize..256,
    ) {
        let inputs = mutation_inputs();
        let mutate = |bytes: &[u8], section_start: usize| {
            let at = if tail == 1 {
                section_start + pick % (bytes.len() - section_start)
            } else {
                pick % bytes.len()
            };
            let mut evil = bytes.to_vec();
            evil[at] = value as u8;
            (at, evil)
        };
        for (bytes, section_start, decode) in [
            (&inputs.vault, inputs.key_start, &(|b: &[u8]| decode_secrets(b).map(|_| ())) as &dyn Fn(&[u8]) -> Result<(), CodecError>),
            (&inputs.manifest, inputs.pools_start, &|b: &[u8]| decode_manifest(b).map(|_| ())),
        ] {
            let (at, evil) = mutate(bytes, section_start);
            let result = decode(&evil);
            if at >= section_start && evil[at] != bytes[at] {
                prop_assert!(result.is_err(), "mutated byte {at} decoded");
            }
        }
        let scratch = Scratch::new("mutation");
        let (at, evil) = mutate(&inputs.vault, inputs.key_start);
        let (from_file, from_memory) = file_and_memory_answers(&scratch, &evil, &inputs.suspects);
        prop_assert_eq!(from_memory, from_file, "mutated byte {}", at);

        let keyless = &inputs.vault[..inputs.key_start];
        let at = if tail == 1 { pick % inputs.model_start } else { pick % keyless.len() };
        let mut evil = keyless.to_vec();
        evil[at] = value as u8;
        let (from_file, from_memory) = file_and_memory_answers(&scratch, &evil, &inputs.suspects);
        prop_assert_eq!(&from_memory, &from_file, "keyless, mutated byte {}", at);
        let decoded = decoded_answers(&evil, &inputs.suspects);
        prop_assert_eq!(decoded, from_file, "keyless, mutated byte {}: decoded", at);
    }
}

/// Everything a provisioner writes for `ids`: the base artifact, every
/// device, the flat registry, the bundle, the shards and the manifest.
type FleetFiles = (
    Vec<u8>,
    Vec<ProvisionedDevice>,
    Vec<u8>,
    Vec<u8>,
    Vec<(String, Vec<u8>)>,
    Vec<u8>,
);

fn fleet_files(p: &FleetProvisioner, ids: &[String]) -> FleetFiles {
    let devices = p.provision_batch(ids, Some(2));
    let registry = p.registry(&devices);
    let mut bundle = Vec::new();
    p.provision_bundle_into(ids, &mut bundle).expect("bundle");
    let sharded = provision_sharded(p, ids, 2, None).expect("shards");
    let shards = (sharded.shards.iter())
        .map(|(name, bytes)| (name.clone(), bytes.to_vec()))
        .collect();
    (
        p.base_artifact().to_vec(),
        devices,
        registry.to_vec(),
        bundle,
        shards,
        encode_manifest(&sharded.manifest).to_vec(),
    )
}

#[test]
fn keyed_and_decoded_provisioning_write_byte_identical_fleets_on_every_scheme() {
    let scratch = Scratch::new("provision");
    let (models, stats) = all_schemes();
    let ids: Vec<String> = (0..5).map(|d| format!("edge-{d}")).collect();
    for (i, qm) in models.iter().enumerate() {
        let secrets = secrets_for(qm, stats, 0x9A0 + i as u64);
        let vault = encode_secrets(&secrets);
        let fp = fp_config(0x5EED + i as u64);
        let family = scratch.family("keyed.emws", &vault).expect("open keyed");
        assert!(family.is_keyed());
        let keyed = FleetProvisioner::for_family(Arc::new(family), fp).expect("keyed");
        let decoded = decode_secrets(&vault).expect("decode");
        let decoded = FleetProvisioner::new(decoded, fp).expect("decoded");
        let files = fleet_files(&keyed, &ids);
        assert!(
            files == fleet_files(&decoded, &ids),
            "{}: fleets differ",
            qm.scheme
        );
        let derived =
            (scratch.family("keyless.emws", &keyless(&vault, &secrets))).expect("open keyless");
        let derived = FleetProvisioner::for_family(Arc::new(derived), fp).expect("keyless");
        assert!(
            files == fleet_files(&derived, &ids),
            "{}: the keyless vault's fleet differs",
            qm.scheme
        );
        // The keyed provisioner continues as a serial fleet: W is
        // decoded from the vault's artifact.
        let mut fleet = keyed.into_fleet(Vec::new()).expect("fleet");
        let next = fleet.provision("edge-9").expect("provision");
        assert!(next.same_weights(&decoded.provision_model("edge-9").1));
    }
}

fn emmark(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_emmark"))
        .args(args)
        .output()
        .expect("run emmark")
}

/// `fleet-provision` over a keyed vault the decoder refuses fails with
/// the decoder's words, and writes nothing: not even the output
/// directory.
#[test]
fn fleet_provision_refuses_a_corrupt_keyed_vault_before_writing_anything() {
    let scratch = Scratch::new("refuse");
    let (secrets, vault, key_start) = keyed_vault(0x7E);
    let key = audit_key(&vault).expect("audit").key.expect("keyed");
    let model_start = key_start - encode_model(&secrets.original).len();
    let entry = SparseArtifact::open(&vault[model_start..key_start])
        .expect("embedded")
        .layer_index()[0];
    assert_eq!(entry.bits, 4);
    // A byte no 4-bit grid holds, at a cell the key does not name: the
    // keyed open never reads it, the provisioner's decode must.
    let cell = (0..entry.cells())
        .find(|f| !key[0].contains(f))
        .expect("a non-key cell");
    let mut grid = vault.clone();
    grid[model_start + entry.q_offset + cell] = 0x7F;
    let mut flipped = vault.clone();
    flipped[key_start + 20] ^= 0x01;
    for (name, evil) in [("grid", grid), ("key", flipped)] {
        let expected = decode_secrets(&evil).expect_err(name).to_string();
        let vault_path = scratch.write(&format!("{name}.emws"), &evil);
        let out_dir = scratch.0.join(format!("{name}-fleet"));
        let out = emmark(&[
            "fleet-provision",
            "--secrets",
            &vault_path.display().to_string(),
            "--out-dir",
            &out_dir.display().to_string(),
            "--devices",
            "2",
        ]);
        assert!(!out.status.success(), "{name}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr).trim(),
            format!("error: {expected}"),
            "{name}"
        );
        assert!(!out_dir.exists(), "{name}: nothing may be written");
    }
    let grid = std::fs::read(scratch.0.join("grid.emws")).expect("read");
    let grid_error = decode_secrets(&grid).expect_err("grid").to_string();
    assert!(
        grid_error.ends_with("grid values exceed the 4-bit storage range"),
        "{grid_error}"
    );
}

/// A keyed vault that changes between open and the provisioner's read
/// of its artifact is an error, never a fleet: truncated, or W edited at
/// a key cell (what the binding was checked against).
#[test]
fn a_vault_changed_after_open_is_an_error_not_a_fleet() {
    let scratch = Scratch::new("changed");
    let (secrets, vault, key_start) = keyed_vault(0x7F);
    let key = audit_key(&vault).expect("audit").key.expect("keyed");
    let model_start = key_start - encode_model(&secrets.original).len();
    let q_offset = SparseArtifact::open(&vault[model_start..key_start])
        .expect("embedded")
        .layer_index()[0]
        .q_offset;
    let path = scratch.write("changed.emws", &vault);
    let reopen = || Arc::new(Family::open(File::open(&path).expect("open")).expect("keyed"));
    let rewrite = |bytes: &[u8]| std::fs::write(&path, bytes).expect("rewrite");

    let family = reopen();
    rewrite(&vault[..key_start - 100]);
    let err = FleetProvisioner::for_family(family, fp_config(1)).expect_err("truncated");
    assert!(matches!(err, StoreError::Io { .. }), "{err}");

    rewrite(&vault);
    let family = reopen();
    let mut edited = vault.clone();
    edited[model_start + q_offset + key[0][0]] ^= 0x01;
    rewrite(&edited);
    let err = FleetProvisioner::for_family(family, fp_config(1)).expect_err("edited");
    assert!(err.to_string().contains("changed since"), "{err}");
}
