//! Truncation/corruption coverage for the EMFM shard-manifest codec,
//! mirroring `tests/fleet_bundle_codec.rs` for the EMFB bundle: cutting
//! the manifest at (and around) *every* section boundary must fail
//! cleanly — never panic, never load a damaged fleet — and the shard
//! loader must reject mixed-version layouts, overlapping or gapped
//! device ranges, checksum/length mismatches, and a leak index naming
//! devices the registry does not have.

use emmark::core::deploy::{CodecError, Section};
use emmark::core::fleet::registry_entry;
use emmark::core::provision::FleetProvisioner;
use emmark::core::registry::{
    decode_manifest, encode_manifest, load_sharded_registry, manifest_section_boundaries,
    provision_sharded, shard_checksum, ShardedFleet,
};
use emmark::core::store::StoreError;
use emmark::core::watermark::{OwnerSecrets, WatermarkConfig};
use emmark::nanolm::{ModelConfig, TransformerModel};
use emmark::quant::awq::{awq, AwqConfig};
use proptest::prelude::*;

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

fn sharded_fleet(seed: u64, devices: usize, shards: usize) -> (Vec<String>, ShardedFleet) {
    let fp_cfg = WatermarkConfig {
        bits_per_layer: 2,
        pool_ratio: 10,
        selection_seed: 0xDE11CE ^ seed,
        ..Default::default()
    };
    let provisioner = FleetProvisioner::new(base_secrets(seed), fp_cfg).expect("cache");
    let ids: Vec<String> = (0..devices).map(|i| format!("edge-{i:02}")).collect();
    let fleet = provision_sharded(&provisioner, &ids, shards, None).expect("provision");
    (ids, fleet)
}

/// Loads a fleet whose shard bytes live in memory.
fn load(
    manifest_bytes: &[u8],
    fleet: &ShardedFleet,
) -> Result<emmark::core::registry::ShardedRegistry, StoreError> {
    load_sharded_registry(manifest_bytes, |name| {
        fleet
            .shards
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.to_vec())
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, name.to_string()))
    })
}

// Fixed offsets of the manifest header: magic (4), manifest version
// (4), shard registry version (4), then the 32-byte fingerprint config.
const REGISTRY_VERSION_WORD: usize = 8;
const CONFIG_START: usize = 12;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Encode → decode is the identity, the loaded device list matches
    /// the serially derived registry entries, and the section-boundary
    /// walk spans exactly the encoded bytes.
    #[test]
    fn manifest_round_trips_and_loads(
        seed in 0u64..100_000,
        devices in 1usize..12,
        shards in 1usize..5,
    ) {
        let (ids, fleet) = sharded_fleet(seed, devices, shards);
        let bytes = encode_manifest(&fleet.manifest).to_vec();
        let decoded = decode_manifest(&bytes).expect("decode");
        prop_assert_eq!(&decoded, &fleet.manifest);

        let boundaries = manifest_section_boundaries(&bytes).expect("boundaries");
        prop_assert_eq!(*boundaries.last().unwrap(), bytes.len());
        prop_assert!(boundaries.windows(2).all(|w| w[0] < w[1]));

        let loaded = load(&bytes, &fleet).expect("load");
        prop_assert_eq!(loaded.devices().len(), devices);
        for (id, device) in ids.iter().zip(loaded.devices()) {
            prop_assert_eq!(device, &registry_entry(&fleet.manifest.fingerprint_config, id));
        }
        prop_assert_eq!(loaded.index(), &fleet.manifest.index);
    }

    /// Truncating the manifest at (and just around) every section
    /// boundary is a clean codec error, never a panic or a silently
    /// shortened fleet.
    #[test]
    fn truncation_at_every_section_boundary_errors_cleanly(
        seed in 0u64..100_000,
        devices in 1usize..8,
        shards in 1usize..4,
    ) {
        let (_, fleet) = sharded_fleet(seed, devices, shards);
        let bytes = encode_manifest(&fleet.manifest).to_vec();
        let boundaries = manifest_section_boundaries(&bytes).expect("boundaries");
        let mut cuts: Vec<usize> = boundaries
            .iter()
            .flat_map(|&b| [b.saturating_sub(1), b, b + 1])
            .filter(|&c| c < bytes.len())
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        for cut in cuts {
            let err = decode_manifest(&bytes[..cut]).expect_err("truncated decode");
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
        }
    }
}

#[test]
fn foreign_versions_are_rejected() {
    let (_, fleet) = sharded_fleet(1, 6, 2);
    let bytes = encode_manifest(&fleet.manifest).to_vec();

    // An unknown manifest version.
    let mut evil = bytes.clone();
    evil[4..8].copy_from_slice(&9u32.to_le_bytes());
    assert_eq!(
        decode_manifest(&evil).expect_err("bad manifest version"),
        CodecError::BadVersion(9)
    );

    // A manifest declaring shards of a registry version this build does
    // not write: a mixed-version layout, not mere corruption. Provisioned
    // manifests are version 2 (they carry the fingerprint pools).
    let mut evil = bytes.clone();
    evil[REGISTRY_VERSION_WORD..REGISTRY_VERSION_WORD + 4].copy_from_slice(&2u32.to_le_bytes());
    assert_eq!(
        decode_manifest(&evil).expect_err("mixed registry version"),
        CodecError::MixedVersion { outer: 2, inner: 2 }
    );

    // A shard file of a foreign registry version under a consistent
    // manifest (checksum and length re-stamped to collude): still a
    // mixed-version error at load time.
    let mut fleet = fleet;
    let mut shard0 = fleet.shards[0].1.to_vec();
    shard0[4..8].copy_from_slice(&2u32.to_le_bytes());
    fleet.manifest.shards[0].checksum = shard_checksum(&shard0);
    fleet.manifest.shards[0].byte_len = shard0.len() as u64;
    fleet.shards[0].1 = shard0.into();
    let bytes = encode_manifest(&fleet.manifest).to_vec();
    match load(&bytes, &fleet).expect_err("mixed shard version") {
        StoreError::Codec(CodecError::MixedVersion { outer: 2, inner: 2 }) => {}
        other => panic!("expected MixedVersion, got {other:?}"),
    }
}

#[test]
fn overlapping_gapped_and_empty_shard_ranges_are_rejected() {
    let (_, fleet) = sharded_fleet(2, 8, 2);

    // Overlap: shard 1 restarts inside shard 0's range.
    let mut evil = fleet.manifest.clone();
    evil.shards[1].first_device -= 1;
    let err = decode_manifest(&encode_manifest(&evil)).expect_err("overlap");
    assert!(err.to_string().contains("contiguous"), "{err}");

    // Gap: shard 1 skips a device.
    let mut evil = fleet.manifest.clone();
    evil.shards[1].first_device += 1;
    let err = decode_manifest(&encode_manifest(&evil)).expect_err("gap");
    assert!(err.to_string().contains("contiguous"), "{err}");

    // Total mismatch: the shards do not sum to the declared count.
    let mut evil = fleet.manifest.clone();
    evil.total_devices += 1;
    let err = decode_manifest(&encode_manifest(&evil)).expect_err("total");
    assert!(err.to_string().contains("declares"), "{err}");

    // Empty shard (ranges still contiguous and summing correctly).
    let mut evil = fleet.manifest.clone();
    let moved = evil.shards[1].device_count;
    evil.shards[0].device_count += moved;
    evil.shards[1].first_device += moved;
    evil.shards[1].device_count = 0;
    let err = decode_manifest(&encode_manifest(&evil)).expect_err("empty shard");
    assert!(err.to_string().contains("empty"), "{err}");
}

#[test]
fn shard_bytes_must_match_their_manifest_entry() {
    let (_, fleet) = sharded_fleet(3, 6, 2);
    let bytes = encode_manifest(&fleet.manifest).to_vec();

    // A flipped byte in a shard file: checksum mismatch.
    let mut evil = fleet.clone();
    let mut shard1 = evil.shards[1].1.to_vec();
    let last = shard1.len() - 1;
    shard1[last] ^= 0x40;
    evil.shards[1].1 = shard1.into();
    let err = load(&bytes, &evil).expect_err("checksum");
    assert!(err.to_string().contains("checksum"), "{err}");

    // An appended byte: length mismatch (before the checksum is even
    // computed).
    let mut evil = fleet.clone();
    let mut shard0 = evil.shards[0].1.to_vec();
    shard0.push(0);
    evil.shards[0].1 = shard0.into();
    let err = load(&bytes, &evil).expect_err("length");
    assert!(err.to_string().contains("bytes"), "{err}");

    // A shard whose fingerprint config disagrees with the manifest,
    // with checksum and length re-stamped to collude.
    let mut evil = fleet.clone();
    let mut shard0 = evil.shards[0].1.to_vec();
    // pool_ratio word inside the shard's config (magic 4 + version 4 +
    // bits_per_layer u64 ... the config's second u64-ish field); flip a
    // config byte that keeps the config valid but different.
    shard0[8 + 24] ^= 0x01;
    evil.manifest.shards[0].checksum = shard_checksum(&shard0);
    evil.manifest.shards[0].byte_len = shard0.len() as u64;
    evil.shards[0].1 = shard0.into();
    let err = load(&encode_manifest(&evil.manifest), &evil).expect_err("config");
    let msg = err.to_string();
    assert!(
        msg.contains("differs") || msg.contains("config"),
        "unhelpful error: {msg}"
    );

    // A missing shard file is an I/O error, not a panic.
    let err = load_sharded_registry(&bytes, |_| {
        Err(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"))
    })
    .expect_err("missing shard");
    assert!(matches!(err, StoreError::Io { .. }));
}

#[test]
fn shard_names_cannot_escape_the_manifest_directory() {
    let (_, fleet) = sharded_fleet(4, 4, 1);
    for evil_name in ["../secrets.emws", "a/b.emfr", "a\\b.emfr", ""] {
        let mut evil = fleet.manifest.clone();
        evil.shards[0].name = evil_name.to_string();
        let err = decode_manifest(&encode_manifest(&evil)).expect_err("path escape");
        assert!(
            err.to_string().contains("escapes") || err.to_string().contains("empty"),
            "{evil_name:?}: {err}"
        );
    }

    // Invalid UTF-8 in a shard name.
    let bytes = encode_manifest(&fleet.manifest).to_vec();
    let boundaries = manifest_section_boundaries(&bytes).expect("boundaries");
    // boundaries: [0, 4, 8, 12, config end, shard-count end, …]; the
    // first shard entry (length-prefixed name) starts at boundaries[5].
    let name_start = boundaries[5] + 4;
    let mut evil = bytes.clone();
    evil[name_start] = 0xFF;
    let err = decode_manifest(&evil).expect_err("bad utf-8");
    assert!(err.to_string().contains("utf-8"), "{err}");
}

#[test]
fn corrupted_leak_index_is_rejected_not_panicking() {
    let (_, fleet) = sharded_fleet(5, 10, 2);
    let bytes = encode_manifest(&fleet.manifest).to_vec();
    let boundaries = manifest_section_boundaries(&bytes).expect("boundaries");
    let shard_count = fleet.manifest.shards.len();
    // boundaries: [0, 4, 8, 12, config end, shard-count end,
    // per-shard ends…, cells start, per-cell marks…].
    let cells_start = boundaries[6 + shard_count];
    let total = fleet.manifest.total_devices as u32;

    // An invalid fingerprint config (pool_ratio = 0).
    let mut evil = bytes.clone();
    evil[CONFIG_START + 20..CONFIG_START + 24].copy_from_slice(&0u32.to_le_bytes());
    assert!(matches!(
        decode_manifest(&evil),
        Err(CodecError::Corrupt { .. })
    ));

    // A cell-count word promising more cells than the input holds.
    let mut evil = bytes.clone();
    evil[cells_start - 4..cells_start].copy_from_slice(&(u32::MAX / 2).to_le_bytes());
    assert!(matches!(
        decode_manifest(&evil),
        Err(CodecError::Truncated { .. })
    ));

    // An out-of-order first cell: forcing its layer word sky-high makes
    // the (layer, flat) ordering check fire on the second cell.
    let mut evil = bytes.clone();
    evil[cells_start..cells_start + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = decode_manifest(&evil).expect_err("unsorted cells");
    assert!(err.to_string().contains("sorted"), "{err}");

    // Walk the cells for a bucket with entries, then (a) point its
    // first device id past the fleet and (b) break its ordering.
    let mut pos = cells_start;
    let mut bucket_with_two = None;
    let mut bucket_with_one = None;
    while pos < bytes.len() {
        pos += 12; // layer + flat
        for _ in 0..2 {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            if len >= 1 && bucket_with_one.is_none() {
                bucket_with_one = Some(pos);
            }
            if len >= 2 && bucket_with_two.is_none() {
                bucket_with_two = Some(pos);
            }
            pos += 4 + 4 * len;
        }
        if bucket_with_two.is_some() {
            break;
        }
    }
    let one = bucket_with_one.expect("some bucket has an entry");
    let mut evil = bytes.clone();
    evil[one + 4..one + 8].copy_from_slice(&total.to_le_bytes());
    let err = decode_manifest(&evil).expect_err("out-of-range device");
    assert!(err.to_string().contains("names device"), "{err}");

    if let Some(two) = bucket_with_two {
        let first = u32::from_le_bytes(bytes[two + 4..two + 8].try_into().unwrap());
        let mut evil = bytes.clone();
        evil[two + 8..two + 12].copy_from_slice(&first.to_le_bytes());
        let err = decode_manifest(&evil).expect_err("unsorted bucket");
        assert!(err.to_string().contains("ascending"), "{err}");
    }
}

#[test]
fn manifests_with_bytes_after_the_last_section_are_refused() {
    let (_, fleet) = sharded_fleet(4, 6, 2);
    let v2 = encode_manifest(&fleet.manifest).to_vec();
    let mut v1_manifest = fleet.manifest.clone();
    v1_manifest.pools = None;
    let v1 = encode_manifest(&v1_manifest).to_vec();
    assert_eq!(&v1[4..8], &1u32.to_le_bytes());
    assert_eq!(decode_manifest(&v1).expect("v1 decodes"), v1_manifest);
    for (bytes, section) in [(&v2, Section::Pools), (&v1, Section::LeakIndex)] {
        for trailer in [1usize, 7] {
            let mut evil = bytes.clone();
            evil.extend(std::iter::repeat_n(0u8, trailer));
            match decode_manifest(&evil).expect_err("trailing bytes must be refused") {
                CodecError::Corrupt {
                    section: s,
                    offset,
                    msg,
                } => {
                    assert_eq!((s, offset), (section, bytes.len()), "{msg}");
                    assert!(msg.contains(&format!("{trailer} trailing bytes")), "{msg}");
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
    }
}
