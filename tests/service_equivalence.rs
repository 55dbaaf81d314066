//! The `emmarkd` service answers bit-for-bit identically to the
//! one-shot CLI paths, under concurrency, for **all five quantization
//! schemes** (RTN, AWQ, GPTQ, SmoothQuant, LLM.int8()):
//!
//! * `verify` through the warm family cache vs `decode_secrets` +
//!   `OwnerSecrets::verify` per request;
//! * `provision` vs a fresh `FleetProvisioner`;
//! * `identify-leak` vs a fresh `FleetVerifier` linear scan;
//! * suspects sent as path blobs (read file-backed) vs the same bytes
//!   inline, intact and damaged;
//! * vaults: the daemon accepts and refuses what `emmark verify` and
//!   `fleet-provision` accept and refuse (a keyed vault with a grid byte
//!   no decoder accepts, the keyless fixture);
//! * plus the failure envelope: queue-full backpressure, malformed
//!   frames, and the graceful shutdown drain.

use emmark::core::deploy::encode_model;
use emmark::core::fleet::{encode_registry, FleetVerifier};
use emmark::core::provision::FleetProvisioner;
use emmark::core::registry::{
    encode_manifest, load_sharded_registry, manifest_section_boundaries, provision_sharded,
};
use emmark::core::service::{
    decode_response, encode_request, Blob, InspectSummary, ReportSummary, Request, Response,
    Service, ServiceConfig,
};
use emmark::core::vault::{
    audit_key, bundle_section_boundaries, decode_secrets, encode_fleet_bundle, encode_secrets,
};
use emmark::core::watermark::{OwnerSecrets, WatermarkConfig};
use emmark::core::SparseArtifact;
use emmark::nanolm::model::ActivationStats;
use emmark::nanolm::{ModelConfig, TransformerModel};
use emmark::quant::awq::{awq, AwqConfig};
use emmark::quant::gptq::{gptq, GptqConfig};
use emmark::quant::llm_int8::{llm_int8, OutlierCriterion};
use emmark::quant::rtn::quantize_linear_rtn;
use emmark::quant::smoothquant::{smoothquant, SmoothQuantConfig};
use emmark::quant::{ActQuant, Granularity, QuantizedModel};
use std::path::PathBuf;
use std::process::Output;
use std::sync::mpsc;

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

fn fp_cfg() -> WatermarkConfig {
    WatermarkConfig {
        bits_per_layer: 2,
        pool_ratio: 10,
        selection_seed: 0xDE11CE,
        ..Default::default()
    }
}

/// One model family: the serialized owner vault, its deployed artifact,
/// and the report the one-shot CLI path produces for that artifact.
struct Family {
    scheme: &'static str,
    secrets_bytes: Vec<u8>,
    deployed_bytes: Vec<u8>,
    expected: ReportSummary,
}

fn build_family(scheme: &'static str, seed: u64) -> Family {
    let (qm, stats) = quantize(scheme, seed);
    let secrets = OwnerSecrets::new(qm, stats, wm_cfg(), 0xB10C ^ seed);
    let deployed = secrets.watermark_for_deployment().expect("stamp");
    let deployed_bytes = encode_model(&deployed).to_vec();
    // The one-shot reference, exactly as `emmark verify` computes it:
    // decode the vault, open the artifact sparsely, extract.
    let sparse = SparseArtifact::open(&deployed_bytes).expect("open");
    let expected = ReportSummary::from(&secrets.verify(&sparse).expect("verify"));
    Family {
        scheme,
        secrets_bytes: encode_secrets(&secrets).to_vec(),
        deployed_bytes,
        expected,
    }
}

#[test]
fn concurrent_batched_verification_matches_the_one_shot_cli() {
    let families: Vec<Family> = SCHEMES
        .iter()
        .enumerate()
        .map(|(i, s)| build_family(s, 1000 + i as u64))
        .collect();

    // Fewer cache slots than families: the LRU must evict and reload
    // under concurrent load without ever changing an answer.
    let service = Service::start(ServiceConfig {
        workers: 4,
        queue_capacity: 64,
        cache_capacity: 3,
        max_resident_bytes: None,
        retry_after_ms: 10,
    });

    std::thread::scope(|scope| {
        for (i, family) in families.iter().enumerate() {
            let service = &service;
            scope.spawn(move || {
                // Two rounds per family: a cold miss, then (possibly)
                // a warm hit. Both must equal the one-shot report.
                for round in 0..2u64 {
                    let req = Request::Verify {
                        secrets: Blob::Inline(family.secrets_bytes.clone()),
                        suspect: Blob::Inline(family.deployed_bytes.clone()),
                        log10_threshold: -9.0,
                    };
                    match service.request(i as u64 * 10 + round, &req) {
                        Response::Verify { report, proved } => {
                            assert_eq!(
                                report, family.expected,
                                "{} round {round}: service report diverged from one-shot",
                                family.scheme
                            );
                            assert!(proved, "{}: tiny-model stamp must prove", family.scheme);
                        }
                        other => panic!("{}: unexpected response {other:?}", family.scheme),
                    }
                }
            });
        }
    });

    assert_eq!(service.request(99, &Request::Ping), Response::Pong);
}

#[test]
fn provisioning_and_leak_identification_match_the_one_shot_engines() {
    let family = build_family("awq", 77);
    let secrets = emmark::core::vault::decode_secrets(&family.secrets_bytes).expect("decode");

    // One-shot reference: a fresh provisioner and a fresh verifier.
    let provisioner = FleetProvisioner::new(secrets.clone(), fp_cfg()).expect("cache");
    let ids: Vec<String> = (0..3).map(|i| format!("edge-{i:02}")).collect();
    let expected: Vec<_> = ids
        .iter()
        .map(|id| provisioner.provision_artifact(id))
        .collect();
    let fingerprints: Vec<_> = expected.iter().map(|p| p.fingerprint.clone()).collect();
    let registry_bytes = encode_registry(&fp_cfg(), &fingerprints).to_vec();
    let leak = &expected[1];
    let one_shot = FleetVerifier::from_parts(secrets, fp_cfg(), fingerprints.clone())
        .expect("cache")
        .identify_leak(&SparseArtifact::open(&leak.artifact).expect("open"), -6.0)
        .expect("identify")
        .map(|(d, r)| (d.clone(), ReportSummary::from(&r)));

    // Provisioning through the warm cache is bit-identical, and the
    // same family entry serves every request.
    let provision_all = |service: &Service| {
        for (i, id) in ids.iter().enumerate() {
            let req = Request::Provision {
                secrets: Blob::Inline(family.secrets_bytes.clone()),
                fingerprint_config: fp_cfg(),
                device_id: id.clone(),
            };
            match service.request(i as u64, &req) {
                Response::Provision {
                    fingerprint,
                    artifact,
                } => {
                    assert_eq!(fingerprint, expected[i].fingerprint, "{id}: fingerprint");
                    assert_eq!(artifact, expected[i].artifact, "{id}: artifact bytes");
                }
                other => panic!("{id}: unexpected response {other:?}"),
            }
        }
    };
    // Leak identification (linear and indexed-capable registry blob)
    // traces the same device with the same extraction stats.
    let identify_both = |service: &Service| {
        for linear in [false, true] {
            let req = Request::IdentifyLeak {
                secrets: Blob::Inline(family.secrets_bytes.clone()),
                registry: Blob::Inline(registry_bytes.clone()),
                suspect: Blob::Inline(leak.artifact.clone()),
                log10_threshold: -6.0,
                linear,
            };
            match service.request(10 + linear as u64, &req) {
                Response::Identify { matched } => {
                    assert_eq!(matched, one_shot, "linear={linear}: attribution diverged");
                    let (device, _) = matched.expect("the leaked artifact must trace");
                    assert_eq!(device.device_id, "edge-01");
                }
                other => panic!("linear={linear}: unexpected response {other:?}"),
            }
        }
    };

    // Both orders on a fresh service: identify reusing the cache that
    // provisioning built, and identify before any provision (it builds
    // the config's cache, which provisioning then reuses).
    for identify_first in [false, true] {
        let service = Service::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        if identify_first {
            identify_both(&service);
            provision_all(&service);
        } else {
            provision_all(&service);
            identify_both(&service);
        }
    }
}

#[test]
fn path_and_inline_suspects_get_equal_responses() {
    let family = build_family("gptq", 91);
    let secrets = emmark::core::vault::decode_secrets(&family.secrets_bytes).expect("decode");
    let provisioner = FleetProvisioner::new(secrets, fp_cfg()).expect("cache");
    let devices: Vec<_> = (0..3)
        .map(|i| provisioner.provision_artifact(&format!("pi-{i}")))
        .collect();
    let fingerprints: Vec<_> = devices.iter().map(|d| d.fingerprint.clone()).collect();
    let registry = Blob::Inline(encode_registry(&fp_cfg(), &fingerprints).to_vec());
    let mut bad_version = family.deployed_bytes.clone();
    bad_version[4] = 9;
    let index = SparseArtifact::open(&family.deployed_bytes)
        .expect("open")
        .layer_index()
        .to_vec();
    let mut bad_record = family.deployed_bytes.clone();
    bad_record[index[3].record_offset + 8] = 3; // an unsupported bit width
    let suspects = [
        ("deployed", family.deployed_bytes.clone()),
        ("leaked", devices[1].artifact.clone()),
        ("pristine-fleet-miss", devices[0].artifact[..].to_vec()),
        ("bad-version", bad_version),
        ("bad-record", bad_record),
        (
            "truncated",
            family.deployed_bytes[..index[5].q_offset + 7].to_vec(),
        ),
        ("not-an-artifact", b"EMQ".to_vec()),
    ];
    let service = Service::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let dir = std::env::temp_dir();
    for (label, bytes) in suspects {
        let path = dir.join(format!(
            "emmark-svctest-suspect-{}-{label}.emqm",
            std::process::id()
        ));
        std::fs::write(&path, &bytes).expect("write suspect");
        let as_blob = |inline: bool| {
            if inline {
                Blob::Inline(bytes.clone())
            } else {
                Blob::Path(path.display().to_string())
            }
        };
        let requests = |inline: bool| {
            vec![
                Request::Verify {
                    secrets: Blob::Inline(family.secrets_bytes.clone()),
                    suspect: as_blob(inline),
                    log10_threshold: -9.0,
                },
                Request::IdentifyLeak {
                    secrets: Blob::Inline(family.secrets_bytes.clone()),
                    registry: registry.clone(),
                    suspect: as_blob(inline),
                    log10_threshold: -6.0,
                    linear: false,
                },
                Request::IdentifyLeak {
                    secrets: Blob::Inline(family.secrets_bytes.clone()),
                    registry: registry.clone(),
                    suspect: as_blob(inline),
                    log10_threshold: -6.0,
                    linear: true,
                },
                Request::Inspect {
                    target: as_blob(inline),
                },
            ]
        };
        for (k, (inline, by_path)) in requests(true).iter().zip(requests(false)).enumerate() {
            let expected = service.request(k as u64, inline);
            let got = service.request(k as u64, &by_path);
            assert_eq!(got, expected, "{label}: request {k}");
            if label == "leaked" && k == 1 {
                assert!(
                    matches!(&got, Response::Identify { matched: Some((fp, _)) } if fp.device_id == "pi-1"),
                    "{got:?}"
                );
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn rewriting_a_vault_path_invalidates_the_stamp_cache() {
    // Warm path-blob requests skip re-reading the vault while its
    // (mtime, length) stamp is unchanged; overwriting the file must
    // flip the stamp and serve the NEW family, not the cached one.
    let a = build_family("rtn", 501);
    let b = build_family("awq", 502);
    let dir = std::env::temp_dir();
    let vault_path = dir.join(format!("emmark-svctest-{}.emws", std::process::id()));
    let vault = vault_path.display().to_string();

    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    for (round, fam) in [&a, &b].into_iter().enumerate() {
        std::fs::write(&vault_path, &fam.secrets_bytes).expect("write vault");
        let req = Request::Verify {
            secrets: Blob::Path(vault.clone()),
            suspect: Blob::Inline(fam.deployed_bytes.clone()),
            log10_threshold: -9.0,
        };
        // Twice per round: the second request exercises the stamp hit.
        for attempt in 0..2 {
            match service.request(round as u64 * 2 + attempt, &req) {
                Response::Verify { report, .. } => assert_eq!(
                    report, fam.expected,
                    "round {round} attempt {attempt}: wrong family served"
                ),
                other => panic!("round {round}: unexpected response {other:?}"),
            }
        }
    }
    let _ = std::fs::remove_file(&vault_path);
}

#[test]
fn rewriting_a_manifest_path_invalidates_the_registry_stamp() {
    // Warm identify requests skip re-reading a registry path while its
    // (mtime, length) stamp is unchanged; provisioning a different
    // fleet over the same manifest path must flip the stamp and trace
    // against the NEW fleet, not the cached verifier.
    let family = build_family("awq", 503);
    let secrets = emmark::core::vault::decode_secrets(&family.secrets_bytes).expect("decode");
    let provisioner = FleetProvisioner::new(secrets.clone(), fp_cfg()).expect("cache");
    let dir = std::env::temp_dir().join(format!("emmark-svctest-emfm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let manifest_path = dir.join("fleet.emfm");
    let manifest = manifest_path.display().to_string();

    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    // Different fleet sizes, so the manifest length (and the stamp)
    // differs even on a filesystem with coarse mtimes.
    for (round, size) in [3usize, 5].into_iter().enumerate() {
        let ids: Vec<String> = (0..size).map(|i| format!("fleet{round}-{i:02}")).collect();
        let fleet = provision_sharded(&provisioner, &ids, 2, None).expect("provision");
        for (name, bytes) in &fleet.shards {
            std::fs::write(dir.join(name), bytes).expect("write shard");
        }
        std::fs::write(&manifest_path, encode_manifest(&fleet.manifest)).expect("write manifest");
        let leak = provisioner.provision_artifact(&ids[size - 1]);
        let one_shot = load_sharded_registry(&encode_manifest(&fleet.manifest), |name| {
            std::fs::read(dir.join(name))
        })
        .expect("load")
        .into_verifier(secrets.clone())
        .expect("verifier")
        .identify_leak(&SparseArtifact::open(&leak.artifact).expect("open"), -6.0)
        .expect("identify")
        .map(|(d, r)| (d.clone(), ReportSummary::from(&r)));
        assert_eq!(
            one_shot.as_ref().map(|(d, _)| d.device_id.as_str()),
            Some(ids[size - 1].as_str())
        );
        let req = Request::IdentifyLeak {
            secrets: Blob::Inline(family.secrets_bytes.clone()),
            registry: Blob::Path(manifest.clone()),
            suspect: Blob::Inline(leak.artifact.clone()),
            log10_threshold: -6.0,
            linear: false,
        };
        // Twice per round: the second request exercises the stamp hit.
        for attempt in 0..2 {
            match service.request(round as u64 * 2 + attempt, &req) {
                Response::Identify { matched } => assert_eq!(
                    matched, one_shot,
                    "round {round} attempt {attempt}: traced against the wrong fleet"
                ),
                other => panic!("round {round}: unexpected response {other:?}"),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queues_push_back_with_busy_and_recover() {
    // No workers: submissions stay queued, so the second one overflows
    // a capacity-1 queue deterministically.
    let service = Service::start(ServiceConfig {
        workers: 0,
        queue_capacity: 1,
        cache_capacity: 1,
        max_resident_bytes: None,
        retry_after_ms: 42,
    });
    let (tx, rx) = mpsc::channel();
    for id in 0..2u64 {
        let tx = tx.clone();
        service.submit(
            encode_request(id, &Request::Ping),
            Box::new(move |bytes| tx.send(decode_response(&bytes).expect("decode")).unwrap()),
        );
    }
    // The overflow answer arrives immediately, without a worker.
    let (id, resp) = rx.recv().expect("busy reply");
    assert_eq!(id, 1);
    assert_eq!(resp, Response::Busy { retry_after_ms: 42 });
    // Draining inline answers the queued request: the queue recovered.
    service.drain_pending();
    let (id, resp) = rx.recv().expect("queued reply");
    assert_eq!(id, 0);
    assert_eq!(resp, Response::Pong);
}

#[test]
fn malformed_frames_are_rejected_without_poisoning_the_pool() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let (tx, rx) = mpsc::channel();
    for garbage in [
        b"not a frame payload".to_vec(),
        b"EMSR".to_vec(), // response magic where a request belongs
        vec![0u8; 4],
    ] {
        let tx = tx.clone();
        service.submit(
            garbage,
            Box::new(move |bytes| tx.send(decode_response(&bytes).expect("decode")).unwrap()),
        );
    }
    for _ in 0..3 {
        let (_, resp) = rx.recv().expect("error reply");
        assert!(
            matches!(resp, Response::Error { .. }),
            "garbage must produce an error response, got {resp:?}"
        );
    }
    // The pool survives and keeps answering well-formed requests.
    assert_eq!(service.request(7, &Request::Ping), Response::Pong);
}

#[test]
fn shutdown_drains_queued_requests_then_refuses_new_ones() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 16,
        cache_capacity: 1,
        max_resident_bytes: None,
        retry_after_ms: 10,
    });
    let (tx, rx) = mpsc::channel();
    for id in 0..4u64 {
        let tx = tx.clone();
        service.submit(
            encode_request(id, &Request::Ping),
            Box::new(move |bytes| tx.send(decode_response(&bytes).expect("decode")).unwrap()),
        );
    }
    assert_eq!(
        service.request(100, &Request::Shutdown),
        Response::ShutdownComplete
    );
    // Every request enqueued before the shutdown was answered.
    let mut ids: Vec<u64> = (0..4)
        .map(|_| rx.recv().expect("drained reply").0)
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![0, 1, 2, 3]);
    service.wait_stopped();
    assert!(service.is_stopped());
    assert!(matches!(
        service.request(101, &Request::Ping),
        Response::Error { .. }
    ));
}

fn emmark(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_emmark"))
        .args(args)
        .output()
        .expect("run emmark")
}

/// A service that answers on the calling thread.
fn inline_service() -> Service {
    Service::start(ServiceConfig {
        workers: 0,
        ..ServiceConfig::default()
    })
}

/// A keyed vault with a byte no 4-bit grid holds at a cell the key does
/// not name. The CLI's keyed open never reads that cell, so `verify`
/// proves ownership; provisioning decodes the whole model and refuses
/// it. The daemon must answer both exactly as the CLI does.
#[test]
fn the_daemon_accepts_and_refuses_a_vault_as_the_cli_does() {
    let (qm, stats) = quantize("awq", 601);
    let secrets = OwnerSecrets::new(qm, stats, wm_cfg(), 0xB10C);
    let deployed = encode_model(&secrets.watermark_for_deployment().expect("stamp")).to_vec();
    let mut vault = encode_secrets(&secrets).to_vec();
    let key = audit_key(&vault).expect("audit").key.expect("keyed");
    let key_len = 4 + 8 + 4 + key.iter().map(|l| 4 + 8 * l.len()).sum::<usize>() + 8;
    let key_start = vault.len() - key_len;
    let model_start = key_start - encode_model(&secrets.original).len();
    let entry = SparseArtifact::open(&vault[model_start..key_start])
        .expect("embedded")
        .layer_index()[0];
    assert_eq!(entry.bits, 4);
    let cell = (0..entry.cells())
        .find(|f| !key[0].contains(f))
        .expect("a non-key cell");
    vault[model_start + entry.q_offset + cell] = 0x7F;

    let dir = std::env::temp_dir().join(format!("emmark-svctest-grid-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let (vault_path, deployed_path) = (dir.join("grid.emws"), dir.join("deployed.emqm"));
    std::fs::write(&vault_path, &vault).expect("write vault");
    std::fs::write(&deployed_path, &deployed).expect("write suspect");
    let (vault_arg, deployed_arg) = (
        vault_path.display().to_string(),
        deployed_path.display().to_string(),
    );
    let verify = emmark(&[
        "verify",
        "--secrets",
        &vault_arg,
        "--suspect",
        &deployed_arg,
    ]);
    let out_dir = dir.join("fleet").display().to_string();
    let provision = emmark(&[
        "fleet-provision",
        "--secrets",
        &vault_arg,
        "--out-dir",
        &out_dir,
        "--devices",
        "2",
        "--fp-bits",
        "2",
    ]);
    let _ = std::fs::remove_dir_all(&dir);

    let service = inline_service();
    let answer = service.request(
        1,
        &Request::Verify {
            secrets: Blob::Inline(vault.clone()),
            suspect: Blob::Inline(deployed.clone()),
            log10_threshold: -9.0,
        },
    );
    let Response::Verify { report, proved } = answer else {
        panic!("the daemon refused a vault `emmark verify` accepts: {answer:?}");
    };
    assert!(
        verify.status.success(),
        "{}",
        String::from_utf8_lossy(&verify.stderr)
    );
    assert!(proved);
    let stdout = String::from_utf8_lossy(&verify.stdout);
    let line = format!(
        "matched {} / {} bits  (WER {:.1}%)",
        report.matched_bits, report.total_bits, report.wer
    );
    assert!(stdout.lines().any(|l| l == line), "{line} not in {stdout}");
    assert!(stdout.contains("verdict: OWNERSHIP PROVED"), "{stdout}");

    let answer = service.request(
        2,
        &Request::Provision {
            secrets: Blob::Inline(vault),
            fingerprint_config: fp_cfg(),
            device_id: "edge-00".into(),
        },
    );
    let Response::Error { message } = answer else {
        panic!("the daemon provisioned from a vault `fleet-provision` refuses: {answer:?}");
    };
    assert!(!provision.status.success());
    assert_eq!(
        String::from_utf8_lossy(&provision.stderr).trim(),
        format!("error: {message}")
    );
    assert!(
        message.ends_with("grid values exceed the 4-bit storage range"),
        "{message}"
    );
}

/// The keyless fixture (`tests/fixtures/keyless_v1`, a vault written
/// before vaults carried a key, and a version 1 manifest) through the
/// daemon: the verdicts `tests/compat_fixture.rs` pins for the CLI.
#[test]
fn the_daemon_reaches_the_keyless_fixture_verdicts_the_cli_does() {
    let fixture = |name: &str| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures/keyless_v1")
            .join(name)
            .display()
            .to_string()
    };
    let vault = std::fs::read(fixture("secrets.emws")).expect("vault");
    let service = inline_service();
    for (i, suspect) in ["leaked-device-0005.emqm", "near-miss-deployed.emqm"]
        .into_iter()
        .enumerate()
    {
        let answer = service.request(
            i as u64,
            &Request::Verify {
                secrets: Blob::Inline(vault.clone()),
                suspect: Blob::Path(fixture(suspect)),
                log10_threshold: -9.0,
            },
        );
        let Response::Verify { report, proved } = answer else {
            panic!("{suspect}: {answer:?}");
        };
        assert!(proved, "{suspect}");
        assert_eq!(
            [
                format!(
                    "matched {} / {} bits  (WER {:.1}%)",
                    report.matched_bits, report.total_bits, report.wer
                ),
                format!("chance-match probability: 10^{:.1}", report.log10_p_chance),
            ],
            [
                "matched 52 / 52 bits  (WER 100.0%)",
                "chance-match probability: 10^-15.7",
            ],
            "{suspect}"
        );
    }
    let identify = |id: u64, suspect: &str, linear: bool| {
        service.request(
            id,
            &Request::IdentifyLeak {
                secrets: Blob::Path(fixture("secrets.emws")),
                registry: Blob::Path(fixture("fleet.emfm")),
                suspect: Blob::Path(fixture(suspect)),
                log10_threshold: -6.0,
                linear,
            },
        )
    };
    for linear in [false, true] {
        let answer = identify(10 + linear as u64, "leaked-device-0005.emqm", linear);
        let Response::Identify {
            matched: Some((device, report)),
        } = answer
        else {
            panic!("linear: {linear}: {answer:?}");
        };
        assert_eq!(
            format!(
                "traced to {}: {} / {} fingerprint bits (WER {:.1}%), p = 10^{:.1}",
                device.device_id,
                report.matched_bits,
                report.total_bits,
                report.wer,
                report.log10_p_chance
            ),
            "traced to device-0005: 39 / 39 fingerprint bits (WER 100.0%), p = 10^-11.7",
            "linear: {linear}"
        );
    }
    assert_eq!(
        identify(12, "near-miss-deployed.emqm", false),
        Response::Identify { matched: None }
    );
}

/// The counts an inspection reports, by name: what `emmark inspect
/// --json` printed, or what the daemon's summary carries.
type Counts = Vec<(&'static str, u64)>;

fn summary_counts(summary: &InspectSummary) -> Counts {
    match *summary {
        InspectSummary::Artifact { layers, cells, .. } => {
            vec![("layers", layers.into()), ("cells", cells)]
        }
        InspectSummary::Secrets {
            layers,
            signature_bits,
        } => vec![
            ("layers", layers.into()),
            ("signature_bits", signature_bits.into()),
        ],
        InspectSummary::Manifest {
            shard_count,
            device_count,
        } => vec![("devices", device_count), ("shards", shard_count.into())],
        InspectSummary::Registry { device_count, .. }
        | InspectSummary::Bundle { device_count, .. } => {
            vec![("devices", device_count.into())]
        }
    }
}

fn cli_counts(json: &str) -> Counts {
    let num = |key: &str| -> u64 {
        let key = format!("\"{key}\":");
        let at = json.find(&key).unwrap_or_else(|| panic!("{key} in {json}")) + key.len();
        let digits: String = json[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().unwrap_or_else(|_| panic!("{key} in {json}"))
    };
    let kind = json
        .split("\"kind\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next());
    match kind {
        None => vec![
            ("layers", json.matches("\"index\":").count() as u64),
            ("cells", num("total_cells")),
        ],
        Some("owner-vault") => vec![
            ("layers", num("layers")),
            ("signature_bits", num("signature_bits")),
        ],
        Some("shard-manifest") => vec![
            ("devices", num("total_devices")),
            ("shards", num("shard_count")),
        ],
        Some("fleet-registry" | "fleet-bundle") => vec![("devices", num("device_count"))],
        Some(other) => panic!("unknown kind {other}"),
    }
}

/// `cases` gets `bytes` intact, with 14 bytes appended, and cut at every
/// offset of `cuts` inside it.
fn mutations(cases: &mut Vec<(String, Vec<u8>)>, name: &str, bytes: &[u8], cuts: &[usize]) {
    cases.push((format!("{name}: intact"), bytes.to_vec()));
    let mut appended = bytes.to_vec();
    appended.extend([0xA5; 14]);
    cases.push((format!("{name}: 14 bytes appended"), appended));
    let mut cuts: Vec<usize> = cuts.iter().copied().filter(|&c| c < bytes.len()).collect();
    cuts.sort_unstable();
    cuts.dedup();
    for cut in cuts {
        cases.push((format!("{name}: cut at {cut}"), bytes[..cut].to_vec()));
    }
}

/// Every container kind, intact, with bytes appended and cut at each of
/// its section boundaries, through the daemon's Inspect (inline and by
/// path) and `emmark inspect --json`: both refuse it with the same
/// words, or both report the same layer, device and shard counts.
#[test]
fn the_daemon_and_the_cli_inspect_every_container_alike() {
    let (qm, stats) = quantize("awq", 611);
    let secrets = OwnerSecrets::new(qm, stats, wm_cfg(), 0xB10C);
    let artifact = encode_model(&secrets.watermark_for_deployment().expect("stamp")).to_vec();
    let model = encode_model(&secrets.original).to_vec();
    let vault = encode_secrets(&secrets).to_vec();
    let provisioner = FleetProvisioner::new(secrets.clone(), fp_cfg()).expect("provisioner");
    let ids: Vec<String> = (0..3).map(|i| format!("edge-{i:02}")).collect();
    let fleet = provisioner.provision_batch(&ids[..2], None);
    let registry = provisioner.registry(&fleet).to_vec();
    let bundle = encode_fleet_bundle(&fp_cfg(), &fleet).to_vec();
    let sharded = provision_sharded(&provisioner, &ids, 2, None).expect("shards");
    let manifest_v2 = encode_manifest(&sharded.manifest).to_vec();
    let mut v1 = sharded.manifest.clone();
    v1.pools = None;
    let manifest_v1 = encode_manifest(&v1).to_vec();
    let keyless = std::fs::read(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/keyless_v1/secrets.emws"),
    )
    .expect("keyless fixture");
    let keyless_model_len = encode_model(&decode_secrets(&keyless).expect("decode").original).len();

    let artifact_cuts = |bytes: &[u8], at: usize| -> Vec<usize> {
        let sparse = SparseArtifact::open(bytes).expect("artifact");
        sparse.section_boundaries().iter().map(|b| at + b).collect()
    };
    let key = audit_key(&vault).expect("audit").key.expect("keyed");
    let key_len = 4 + 8 + 4 + key.iter().map(|l| 4 + 8 * l.len()).sum::<usize>() + 8;
    let model_start = vault.len() - key_len - model.len();
    let keyless_model_start = keyless.len() - keyless_model_len;
    let mut cases = Vec::new();
    mutations(&mut cases, "EMQM", &artifact, &artifact_cuts(&artifact, 0));
    let mut vault_cuts = artifact_cuts(&model, model_start);
    vault_cuts.extend([0, 4, 8, model_start - 4, vault.len() - 8]);
    mutations(&mut cases, "keyed EMWS", &vault, &vault_cuts);
    let model_bytes = &keyless[keyless_model_start..];
    let mut keyless_cuts = artifact_cuts(model_bytes, keyless_model_start);
    keyless_cuts.extend([0, 4, 8, keyless_model_start - 4]);
    mutations(&mut cases, "keyless EMWS", &keyless, &keyless_cuts);
    mutations(
        &mut cases,
        "EMFR",
        &registry,
        &[0, 4, 8, 40, 44, registry.len() - 1],
    );
    let bundle_cuts = bundle_section_boundaries(&bundle).expect("bundle");
    mutations(&mut cases, "EMFB", &bundle, &bundle_cuts);
    for (name, manifest) in [("EMFM v1", &manifest_v1), ("EMFM v2", &manifest_v2)] {
        let cuts = manifest_section_boundaries(manifest).expect("manifest");
        mutations(&mut cases, name, manifest, &cuts);
    }
    assert!(cases.len() > 100, "{} cases", cases.len());

    let dir = std::env::temp_dir().join(format!("emmark-svctest-inspect-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("container");
    let path_arg = path.display().to_string();
    let service = inline_service();
    let mut refused = 0;
    for (k, (label, bytes)) in cases.into_iter().enumerate() {
        std::fs::write(&path, &bytes).expect("write");
        let inline = service.request(
            2 * k as u64,
            &Request::Inspect {
                target: Blob::Inline(bytes),
            },
        );
        let by_path = service.request(
            2 * k as u64 + 1,
            &Request::Inspect {
                target: Blob::Path(path_arg.clone()),
            },
        );
        assert_eq!(by_path, inline, "{label}: path and inline answers differ");
        let out = emmark(&["inspect", "--model", &path_arg, "--json"]);
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        match inline {
            Response::Error { message } => {
                refused += 1;
                assert!(!out.status.success(), "{label}: the CLI accepted {stdout}");
                assert_eq!(stderr.trim(), format!("error: {message}"), "{label}");
            }
            Response::Inspect(summary) => {
                assert!(out.status.success(), "{label}: the CLI refused: {stderr}");
                assert_eq!(cli_counts(&stdout), summary_counts(&summary), "{label}");
            }
            other => panic!("{label}: {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(refused > 50, "only {refused} refusals");
}

/// `emmark inspect` answers what the daemon answers where it used to
/// fall through to the artifact reader: an input too short for a magic,
/// an unknown magic, and a flat registry.
#[test]
fn inspect_names_short_and_unknown_inputs_and_summarises_registries() {
    let (qm, stats) = quantize("rtn", 612);
    let secrets = OwnerSecrets::new(qm, stats, wm_cfg(), 0xB10C);
    let provisioner = FleetProvisioner::new(secrets, fp_cfg()).expect("provisioner");
    let fleet = provisioner.provision_batch(&["a", "b", "c"], None);
    let dir = std::env::temp_dir().join(format!("emmark-svctest-sniff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let write = |name: &str, bytes: &[u8]| {
        let path = dir.join(name);
        std::fs::write(&path, bytes).expect("write");
        path.display().to_string()
    };
    let short = write("short.emqm", b"EMQ");
    let unknown = write("unknown.bin", b"ABCD0000");
    let registry = write("fleet.emfr", &provisioner.registry(&fleet));
    let service = inline_service();
    let inspect = |path: &str, json: bool| {
        let mut args = vec!["inspect", "--model", path];
        if json {
            args.push("--json");
        }
        let out = emmark(&args);
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    for (path, message) in [
        (&short, "input is too short to carry a container magic"),
        (&unknown, "unrecognised container magic \"ABCD\""),
    ] {
        assert_eq!(
            inspect(path, false),
            (false, String::new(), format!("error: {message}\n"))
        );
        let answer = service.request(
            0,
            &Request::Inspect {
                target: Blob::Path(path.clone()),
            },
        );
        assert_eq!(
            answer,
            Response::Error {
                message: message.into()
            }
        );
    }
    let fingerprint = "fingerprint: 2 bits/layer, pool ratio 10, selection seed 14553550";
    assert_eq!(
        inspect(&registry, false),
        (
            true,
            format!("registry: {registry}\ndevices : 3 registered\n{fingerprint}\n"),
            String::new()
        )
    );
    assert_eq!(
        inspect(&registry, true),
        (
            true,
            "{\"kind\":\"fleet-registry\",\"device_count\":3,\"fingerprint\":\
             {\"bits_per_layer\":2,\"pool_ratio\":10,\"selection_seed\":14553550}}\n"
                .to_string(),
            String::new()
        )
    );
    let answer = service.request(
        1,
        &Request::Inspect {
            target: Blob::Path(registry.clone()),
        },
    );
    assert_eq!(
        answer,
        Response::Inspect(InspectSummary::Registry {
            device_count: 3,
            fingerprint_config: fp_cfg(),
        })
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A registry reader refuses an artifact or a vault in the same words
/// from the daemon's identify and from `fleet-verify`.
#[test]
fn registry_readers_refuse_other_containers_alike() {
    let (qm, stats) = quantize("rtn", 613);
    let secrets = OwnerSecrets::new(qm, stats, wm_cfg(), 0xB10C);
    let vault = encode_secrets(&secrets).to_vec();
    let artifact = encode_model(&secrets.watermark_for_deployment().expect("stamp")).to_vec();
    let dir = std::env::temp_dir().join(format!("emmark-svctest-notreg-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("artifacts")).expect("mkdir");
    let write = |name: &str, bytes: &[u8]| {
        let path = dir.join(name);
        std::fs::write(&path, bytes).expect("write");
        path.display().to_string()
    };
    let vault_path = write("secrets.emws", &vault);
    write("artifacts/deployed.emqm", &artifact);
    let artifacts = dir.join("artifacts").display().to_string();
    let service = inline_service();
    let message = "not a fleet registry (expected EMFR, EMFB, or EMFM)";
    for (i, registry) in [&artifact, &vault].into_iter().enumerate() {
        let answer = service.request(
            i as u64,
            &Request::IdentifyLeak {
                secrets: Blob::Inline(vault.clone()),
                registry: Blob::Inline(registry.clone()),
                suspect: Blob::Inline(artifact.clone()),
                log10_threshold: -6.0,
                linear: false,
            },
        );
        assert_eq!(
            answer,
            Response::Error {
                message: message.into()
            }
        );
        let registry_path = write("registry", registry);
        let out = emmark(&[
            "fleet-verify",
            "--secrets",
            &vault_path,
            "--registry",
            &registry_path,
            "--artifacts",
            &artifacts,
        ]);
        assert!(!out.status.success());
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("error: {message}\n")
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
