//! PR 2-style truncation/corruption coverage for the EMFB fleet-bundle
//! codec, which PR 3 shipped without it: truncation at (and around)
//! *every* section boundary the bundle layout names must fail cleanly —
//! never panic, never decode a damaged fleet — for both the buffered
//! decoder and the streaming reader, and codec errors must carry the
//! same section + byte-offset context as the deploy codec.

use emmark::core::deploy::{CodecError, Section};
use emmark::core::fleet::{decode_registry, encode_registry};
use emmark::core::provision::{FleetProvisioner, ProvisionedDevice};
use emmark::core::service::{Blob, Request, Response, Service, ServiceConfig};
use emmark::core::store::StoreError;
use emmark::core::vault::{
    bundle_section_boundaries, decode_fleet_bundle, encode_fleet_bundle, encode_secrets,
    FleetBundleStream, FleetBundleWriter,
};
use emmark::core::watermark::{OwnerSecrets, WatermarkConfig};
use emmark::nanolm::{ModelConfig, TransformerModel};
use emmark::quant::awq::{awq, AwqConfig};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, recording the largest single request made in
/// this test binary — so a reader that pre-allocates an untrusted
/// length word shows up even when the allocation itself succeeds.
struct LargestRequest;

static LARGEST_REQUEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; only the
// requested size is recorded.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

fn base_secrets(seed: u64) -> OwnerSecrets {
    let mut cfg = ModelConfig::tiny_test();
    cfg.init_seed = seed;
    let mut model = TransformerModel::new(cfg);
    let calib: Vec<Vec<u32>> = (0..4u32)
        .map(|s| (0..16u32).map(|i| (i * 7 + s) % 31).collect())
        .collect();
    let stats = model.collect_activation_stats(&calib);
    let qm = awq(&model, &stats, &AwqConfig::default());
    let wm = WatermarkConfig {
        bits_per_layer: 3,
        pool_ratio: 10,
        ..Default::default()
    };
    OwnerSecrets::new(qm, stats, wm, seed ^ 0x5EC2)
}

fn provisioned_fleet(seed: u64, devices: usize) -> (WatermarkConfig, Vec<ProvisionedDevice>) {
    let fp_cfg = WatermarkConfig {
        bits_per_layer: 2,
        pool_ratio: 10,
        selection_seed: 0xDE11CE ^ seed,
        ..Default::default()
    };
    let provisioner = FleetProvisioner::new(base_secrets(seed), fp_cfg).expect("cache");
    let ids: Vec<String> = (0..devices).map(|i| format!("edge-{i:02}")).collect();
    (fp_cfg, provisioner.provision_batch(&ids, None))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Truncating a bundle at (and just around) every section boundary
    /// is a clean codec error for the buffered decoder, and the
    /// streaming reader either errors at the damaged entry or never
    /// reaches it — it must not fabricate devices.
    #[test]
    fn truncation_at_every_section_boundary_errors_cleanly(
        seed in 0u64..100_000,
        devices in 1usize..4,
    ) {
        let (fp_cfg, fleet) = provisioned_fleet(seed, devices);
        let bytes = encode_fleet_bundle(&fp_cfg, &fleet).to_vec();
        let boundaries = bundle_section_boundaries(&bytes).expect("boundaries");
        prop_assert_eq!(*boundaries.last().unwrap(), bytes.len());
        prop_assert!(boundaries.windows(2).all(|w| w[0] < w[1]));

        let mut cuts: Vec<usize> = boundaries
            .iter()
            .flat_map(|&b| [b.saturating_sub(1), b, b + 1])
            .filter(|&c| c < bytes.len())
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        for cut in cuts {
            let err = decode_fleet_bundle(&bytes[..cut]).expect_err("truncated decode");
            prop_assert!(
                matches!(
                    err,
                    CodecError::Truncated { .. }
                        | CodecError::Corrupt { .. }
                        | CodecError::BadMagic
                        | CodecError::BadVersion(_)
                ),
                "cut {cut}: {err:?}"
            );
            // The streaming reader: entries before the cut may decode,
            // but the stream must end in an error (the declared device
            // count can never be satisfied by a truncated bundle).
            match FleetBundleStream::open(&bytes[..cut]) {
                Err(_) => {}
                Ok(stream) => {
                    let entries: Vec<_> = stream.collect();
                    prop_assert!(
                        entries.last().is_some_and(|e| e.is_err()),
                        "cut {cut}: truncated stream ended without an error"
                    );
                    // Fused: nothing after the first error.
                    let first_err = entries.iter().position(|e| e.is_err()).unwrap();
                    prop_assert_eq!(first_err, entries.len() - 1);
                }
            }
        }
    }

    /// The streaming reader and the buffered decoder agree entry for
    /// entry on well-formed bundles.
    #[test]
    fn stream_and_buffered_decoders_agree(
        seed in 0u64..100_000,
        devices in 0usize..4,
    ) {
        let (fp_cfg, fleet) = provisioned_fleet(seed, devices);
        let bytes = encode_fleet_bundle(&fp_cfg, &fleet).to_vec();
        let bundle = decode_fleet_bundle(&bytes).expect("decode");
        let mut stream = FleetBundleStream::open(bytes.as_slice()).expect("open");
        prop_assert_eq!(stream.device_count(), fleet.len());
        prop_assert_eq!(*stream.fingerprint_config(), bundle.fingerprint_config);
        let streamed: Vec<ProvisionedDevice> = (&mut stream)
            .collect::<Result<_, _>>()
            .expect("stream entries");
        prop_assert_eq!(streamed, bundle.devices);
    }
}

#[test]
fn bundle_errors_carry_device_section_and_offset_context() {
    let (fp_cfg, fleet) = provisioned_fleet(1, 3);
    let bytes = encode_fleet_bundle(&fp_cfg, &fleet).to_vec();
    let boundaries = bundle_section_boundaries(&bytes).expect("boundaries");
    // Cut inside the *second* device's artifact: the error must blame
    // device 1 (0-based) and carry a byte offset, like the deploy
    // codec's per-layer errors.
    let second_artifact_end = boundaries[boundaries.len() - 3];
    let err = decode_fleet_bundle(&bytes[..second_artifact_end - 7]).expect_err("truncated");
    let msg = err.to_string();
    assert!(msg.contains("device 1"), "unhelpful error: {msg}");
    assert!(msg.contains("byte"), "no offset in: {msg}");

    // Same context from the streaming reader.
    let mut stream = FleetBundleStream::open(&bytes[..second_artifact_end - 7]).expect("open");
    assert!(stream.next().expect("first entry").is_ok());
    let err = stream.next().expect("second entry").expect_err("truncated");
    assert!(err.to_string().contains("device 1"), "{err}");
}

/// A 3-device bundle cut at every entry boundary, or with an id-length
/// or artifact-length word set to `u32::MAX`: the streaming reader
/// fails at that entry, naming its `Device(i)` section, without a panic
/// and without allocating the declared length.
#[test]
fn stream_mutations_fail_at_the_damaged_entry() {
    let (fp_cfg, fleet) = provisioned_fleet(5, 3);
    let bytes = encode_fleet_bundle(&fp_cfg, &fleet).to_vec();
    // Where each entry, its id-length word and its artifact-length word
    // start.
    let mut entries = Vec::new();
    let mut at = bundle_section_boundaries(&bytes).expect("boundaries")[4];
    for device in &fleet {
        let artifact_len_word = at + 4 + device.fingerprint.device_id.len() + 16;
        entries.push((at, artifact_len_word));
        at = artifact_len_word + 4 + device.artifact.len();
    }
    assert_eq!(at, bytes.len());
    let boundaries = bundle_section_boundaries(&bytes).expect("boundaries");
    let entry_of = |offset: usize| entries.iter().rposition(|&(start, _)| start <= offset);

    let mut cases: Vec<(String, Vec<u8>, usize)> = Vec::new();
    for &cut in boundaries
        .iter()
        .filter(|&&b| b >= entries[0].0 && b < bytes.len())
    {
        let i = entry_of(cut).expect("inside an entry");
        cases.push((format!("cut at {cut}"), bytes[..cut].to_vec(), i));
    }
    for (i, &(id_len_word, artifact_len_word)) in entries.iter().enumerate() {
        for (what, word) in [("id", id_len_word), ("artifact", artifact_len_word)] {
            let mut evil = bytes.clone();
            evil[word..word + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            cases.push((format!("device {i} {what} length u32::MAX"), evil, i));
        }
    }
    assert_eq!(cases.len(), 2 * fleet.len() + 2 * fleet.len());

    for (label, evil, i) in cases {
        let mut stream = FleetBundleStream::open(evil.as_slice()).expect("header intact");
        for j in 0..i {
            assert!(
                stream.next().is_some_and(|e| e.is_ok()),
                "{label}: entry {j}"
            );
        }
        let err = stream.next().expect("the damaged entry").expect_err(&label);
        assert!(
            matches!(
                &err,
                StoreError::Codec(CodecError::Truncated { section: Section::Device(d), .. })
                    if *d == i
            ),
            "{label}: {err:?}"
        );
        assert!(
            err.to_string().contains(&format!("device {i}")),
            "{label}: {err}"
        );
        assert!(stream.next().is_none(), "{label}: fused after the error");
    }
    let largest = LARGEST_REQUEST.load(Ordering::Relaxed);
    assert!(
        largest < u32::MAX as usize / 2,
        "a reader allocated {largest} bytes for a declared length"
    );
}

#[test]
fn registry_errors_carry_device_section_context_too() {
    let (fp_cfg, fleet) = provisioned_fleet(2, 2);
    let devices: Vec<_> = fleet.iter().map(|p| p.fingerprint.clone()).collect();
    let bytes = encode_registry(&fp_cfg, &devices).to_vec();
    // Truncate inside the second device entry.
    let err = decode_registry(&bytes[..bytes.len() - 5]).expect_err("truncated");
    let msg = err.to_string();
    assert!(msg.contains("device 1"), "unhelpful error: {msg}");
    assert!(msg.contains("byte"), "no offset in: {msg}");
}

#[test]
fn corrupted_bundles_are_rejected_not_panicking() {
    let (fp_cfg, fleet) = provisioned_fleet(3, 2);
    let bytes = encode_fleet_bundle(&fp_cfg, &fleet).to_vec();

    // An invalid fingerprint config (pool_ratio = 0 lives at header
    // offset 8 + 8 + 8 + 4 + 4 = the config's pool word).
    let mut evil = bytes.clone();
    evil[8 + 16 + 4..8 + 16 + 8].copy_from_slice(&0u32.to_le_bytes());
    assert!(matches!(
        decode_fleet_bundle(&evil),
        Err(CodecError::Corrupt { .. })
    ));

    // A device id containing invalid UTF-8. The first device entry
    // starts right after the header boundaries (0, magic, version,
    // config end, count end).
    let boundaries = bundle_section_boundaries(&bytes).expect("boundaries");
    let first_entry = boundaries[4];
    let mut evil = bytes.clone();
    evil[first_entry + 4] = 0xFF; // first id byte
    let err = decode_fleet_bundle(&evil).expect_err("bad utf-8");
    assert!(err.to_string().contains("utf-8"), "{err}");

    // An artifact length word pointing past the end of the input.
    let mut evil = bytes.clone();
    let id_len = u32::from_le_bytes(bytes[first_entry..first_entry + 4].try_into().unwrap());
    let len_word = first_entry + 4 + id_len as usize + 16;
    evil[len_word..len_word + 4].copy_from_slice(&(u32::MAX / 2).to_le_bytes());
    assert!(matches!(
        decode_fleet_bundle(&evil),
        Err(CodecError::Truncated { .. })
    ));
}

#[test]
fn bundle_writer_enforces_its_declared_count_and_entry_lengths() {
    let (fp_cfg, fleet) = provisioned_fleet(4, 2);

    // Appending more devices than declared is refused.
    let mut w = FleetBundleWriter::new(Vec::new(), &fp_cfg, 1).expect("writer");
    w.append(&fleet[0].fingerprint, &fleet[0].artifact)
        .expect("first");
    assert!(matches!(
        w.append(&fleet[1].fingerprint, &fleet[1].artifact),
        Err(StoreError::Codec(_))
    ));

    // Finishing with fewer devices than declared is refused.
    let w = FleetBundleWriter::new(Vec::new(), &fp_cfg, 2).expect("writer");
    assert!(matches!(w.finish(), Err(StoreError::Codec(_))));

    // A fill callback that lies about the artifact length is refused —
    // a short entry would corrupt every subsequent one.
    let mut w = FleetBundleWriter::new(Vec::new(), &fp_cfg, 1).expect("writer");
    let err = w
        .append_streamed(&fleet[0].fingerprint, fleet[0].artifact.len(), |out| {
            out.write_all(&fleet[0].artifact[..10])
                .map_err(|e| StoreError::Io {
                    what: "test write",
                    source: e,
                })
        })
        .expect_err("short fill");
    assert!(err.to_string().contains("bytes"), "{err}");
}

/// Bytes after a flat registry's or a bundle's last device entry are a
/// positioned `Corrupt` error for every reader — the codecs, the
/// streaming reader, the daemon and `fleet-verify` — never a verdict.
#[test]
fn bytes_after_the_last_device_entry_are_refused() {
    let secrets = base_secrets(5);
    let fp_cfg = WatermarkConfig {
        bits_per_layer: 2,
        pool_ratio: 10,
        selection_seed: 0xDE11CE,
        ..Default::default()
    };
    let provisioner = FleetProvisioner::new(secrets.clone(), fp_cfg).expect("provisioner");
    let fleet = provisioner.provision_batch(&["edge-00", "edge-01"], None);
    let registry = provisioner.registry(&fleet).to_vec();
    let bundle = encode_fleet_bundle(&fp_cfg, &fleet).to_vec();
    let with_trailer = |bytes: &[u8], n: usize| {
        let mut evil = bytes.to_vec();
        evil.extend(std::iter::repeat_n(0xA5u8, n));
        evil
    };
    let expect_trailer = |err: CodecError, section: Section, at: usize, n: usize| match err {
        CodecError::Corrupt {
            section: s,
            offset,
            msg,
        } => {
            assert_eq!((s, offset), (section, at), "{msg}");
            assert!(msg.contains(&format!("{n} trailing bytes")), "{msg}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    };
    for n in [1usize, 7] {
        let err = decode_registry(&with_trailer(&registry, n)).expect_err("registry");
        expect_trailer(err, Section::Registry, registry.len(), n);
        let err = decode_fleet_bundle(&with_trailer(&bundle, n)).expect_err("bundle");
        expect_trailer(err, Section::Bundle, bundle.len(), n);
        // The stream yields every entry, then the error, then nothing.
        let evil = with_trailer(&bundle, n);
        let entries: Vec<_> = FleetBundleStream::open(evil.as_slice())
            .expect("open")
            .collect();
        assert_eq!(entries.len(), fleet.len() + 1);
        assert!(entries[..fleet.len()].iter().all(Result::is_ok));
        match entries.last() {
            Some(Err(StoreError::Codec(err))) => {
                expect_trailer(err.clone(), Section::Bundle, bundle.len(), n)
            }
            other => panic!("expected a codec error, got {other:?}"),
        }
    }

    // The daemon refuses both as identify-leak registries.
    let vault = encode_secrets(&secrets).to_vec();
    let service = Service::start(ServiceConfig {
        workers: 0,
        ..ServiceConfig::default()
    });
    for (i, registry) in [with_trailer(&registry, 7), with_trailer(&bundle, 14)]
        .into_iter()
        .enumerate()
    {
        let request = Request::IdentifyLeak {
            secrets: Blob::Inline(vault.clone()),
            registry: Blob::Inline(registry),
            suspect: Blob::Inline(fleet[1].artifact.clone()),
            log10_threshold: -6.0,
            linear: false,
        };
        match service.request(i as u64, &request) {
            Response::Error { message } => {
                assert!(message.contains("trailing bytes"), "{message}")
            }
            other => panic!("expected an error, got {other:?}"),
        }
    }

    // So does `fleet-verify`, over a flat registry and over a bundle.
    let dir = std::env::temp_dir().join(format!("emmark-trailer-{}", std::process::id()));
    let artifacts = dir.join("artifacts");
    std::fs::create_dir_all(&artifacts).expect("scratch dir");
    for d in &fleet {
        let name = format!("{}.emqm", d.fingerprint.device_id);
        std::fs::write(artifacts.join(name), &d.artifact).expect("write artifact");
    }
    let file = |name: &str, bytes: &[u8]| {
        let path = dir.join(name);
        std::fs::write(&path, bytes).expect("write");
        path.display().to_string()
    };
    let vault_path = file("secrets.emws", &vault);
    let registry_path = file("fleet.emfr", &with_trailer(&registry, 7));
    let bundle_path = file("fleet.emfb", &with_trailer(&bundle, 14));
    let artifacts = artifacts.display().to_string();
    for args in [
        vec!["--registry", &registry_path, "--artifacts", &artifacts],
        vec!["--bundle", &bundle_path],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_emmark"))
            .args(["fleet-verify", "--secrets", &vault_path])
            .args(&args)
            .output()
            .expect("run emmark");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?}");
        assert!(stderr.contains("trailing bytes"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
