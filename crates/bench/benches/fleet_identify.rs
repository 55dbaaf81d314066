//! **Leak identification at registry scale** — the million-device
//! question: given a leaked model and a registry of N fingerprinted
//! devices, which device leaked it? The linear scan scores every
//! registered device (Eq. 6 extraction × N); the indexed path reads the
//! suspect once at the shared fingerprint-pool cells, counts exact
//! per-device matched bits through the EMFM manifest's inverted index,
//! and runs the full extraction only on devices whose counts clear the
//! Eq. 8 threshold — typically one of N.
//!
//! Gates: verdicts (device *and* report) bit-identical on every
//! suspect, and the indexed path ≥20x faster than the linear scan at
//! 10^5 devices.

use criterion::Criterion;
use emmark_bench::print_header;
use emmark_core::fleet::FleetVerifier;
use emmark_core::provision::FleetProvisioner;
use emmark_core::registry::{
    decode_manifest, encode_manifest, load_sharded_registry, provision_sharded,
};
use emmark_core::watermark::{GridSource, OwnerSecrets, WatermarkConfig};
use emmark_nanolm::config::ModelConfig;
use emmark_nanolm::TransformerModel;
use emmark_quant::awq::{awq, AwqConfig};
use std::time::Instant;

fn device_count() -> usize {
    std::env::var("EMMARK_FLEET_DEVICES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000)
}

fn provisioner() -> FleetProvisioner {
    let mut cfg = ModelConfig::tiny_test();
    cfg.d_model = 32;
    cfg.d_ff = 96;
    let mut model = TransformerModel::new(cfg);
    let calib: Vec<Vec<u32>> = (0..8u32)
        .map(|s| (0..24u32).map(|i| (i * 7 + s * 5) % 31).collect())
        .collect();
    let stats = model.collect_activation_stats(&calib);
    let quantized = awq(&model, &stats, &AwqConfig::default());
    let base_cfg = WatermarkConfig {
        bits_per_layer: 8,
        pool_ratio: 20,
        ..Default::default()
    };
    let base = OwnerSecrets::new(quantized, stats, base_cfg, 0xF1EE7);
    let fp_cfg = WatermarkConfig {
        bits_per_layer: 3,
        pool_ratio: 10,
        selection_seed: 0xDE11CE,
        ..Default::default()
    };
    FleetProvisioner::new(base, fp_cfg).expect("provisioner")
}

/// Identify through the linear scan or the attached index, reduced to a
/// comparable verdict.
fn identify<S: GridSource>(
    verifier: &FleetVerifier,
    linear: bool,
    suspect: &S,
    threshold: f64,
) -> Option<(String, usize, usize)> {
    if linear {
        verifier.identify_leak_linear(suspect, threshold)
    } else {
        verifier.identify_leak(suspect, threshold)
    }
    .expect("identify")
    .map(|(d, r)| (d.device_id.clone(), r.matched_bits, r.total_bits))
}

fn main() {
    let n = device_count();
    print_header(
        "IDENTIFY",
        &format!("leak identification over {n} registered devices, indexed vs linear"),
    );

    let p = provisioner();
    let ids: Vec<String> = (0..n).map(|i| format!("edge-{i:06}")).collect();
    let start = Instant::now();
    let fleet = provision_sharded(&p, &ids, 16, None).expect("provision");
    let provision_time = start.elapsed();
    let shard_bytes: usize = fleet.shards.iter().map(|(_, b)| b.len()).sum();

    // The manifest codec at scale: the index round-trips through the
    // EMFM wire format, so the benched index is the *persisted* one.
    let start = Instant::now();
    let manifest_bytes = encode_manifest(&fleet.manifest);
    let encode_time = start.elapsed();
    let start = Instant::now();
    let manifest = decode_manifest(&manifest_bytes).expect("decode");
    let decode_time = start.elapsed();
    assert_eq!(manifest, fleet.manifest, "manifest round-trip");
    let index = manifest.index;
    let index_cells = index.cell_count();
    println!(
        "{n} devices provisioned into {} shards in {:.2} s ({:.1} MiB shards, {:.1} MiB manifest \
         with {} index cells; encode {:.0} ms, decode {:.0} ms)",
        fleet.shards.len(),
        provision_time.as_secs_f64(),
        shard_bytes as f64 / (1024.0 * 1024.0),
        manifest_bytes.len() as f64 / (1024.0 * 1024.0),
        index_cells,
        encode_time.as_secs_f64() * 1e3,
        decode_time.as_secs_f64() * 1e3,
    );

    // Reload the registry from its wire form — the linear baseline and
    // the indexed path both run over the *loaded* fleet.
    let start = Instant::now();
    let registry = load_sharded_registry(&manifest_bytes, |name| {
        fleet
            .shards
            .iter()
            .find(|(sn, _)| sn == name)
            .map(|(_, b)| b.to_vec())
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, name.to_string()))
    })
    .expect("load");
    let load_time = start.elapsed();
    let verifier = p
        .verifier(registry.devices().to_vec())
        .with_index(index)
        .expect("index covers the registry");
    println!(
        "registry reloaded from shards in {:.2} s ({} devices)",
        load_time.as_secs_f64(),
        registry.devices().len()
    );

    // Suspects: an honest leak from the middle of the registry, and a
    // base-only near miss (ownership watermark, no fingerprint).
    let leak_id = &ids[n / 2];
    let leaked = p.provision_model(leak_id).1;
    let base_only = p.base_deployed().clone();

    // Bit-identical verdicts on both suspects at both thresholds. At
    // 10^-40 the tiny fingerprint cannot clear the bar, so both paths
    // must agree on None; attribution is asserted at the ordinary bar.
    for &t in &[-6.0, -40.0] {
        let linear = identify(&verifier, true, &leaked, t);
        let indexed = identify(&verifier, false, &leaked, t);
        assert_eq!(indexed, linear, "leak verdicts diverged at 10^{t}");
        if t == -6.0 {
            assert_eq!(
                indexed.as_ref().map(|(d, _, _)| d.as_str()),
                Some(leak_id.as_str()),
                "misattributed at 10^{t}"
            );
        }
        let linear = identify(&verifier, true, &base_only, t);
        let indexed = identify(&verifier, false, &base_only, t);
        assert_eq!(indexed, linear, "near-miss verdicts diverged at 10^{t}");
        assert_eq!(indexed, None, "base-only suspect must not be traced");
    }

    // Timed passes. The linear scan is O(N) extractions; a handful of
    // iterations is plenty. The indexed path is sublinear; average a
    // larger batch.
    let linear_iters = 3;
    let start = Instant::now();
    for _ in 0..linear_iters {
        criterion::black_box(identify(&verifier, true, &leaked, -6.0));
    }
    let linear_time = start.elapsed() / linear_iters;

    let indexed_iters = 50;
    let start = Instant::now();
    for _ in 0..indexed_iters {
        criterion::black_box(identify(&verifier, false, &leaked, -6.0));
    }
    let indexed_time = start.elapsed() / indexed_iters;

    let speedup = linear_time.as_secs_f64() / indexed_time.as_secs_f64();
    println!("\n{:<52} {:>12}", "path", "per identify");
    println!(
        "{:<52} {:>9.2} ms",
        format!("linear scan ({n} devices scored)"),
        linear_time.as_secs_f64() * 1e3
    );
    println!(
        "{:<52} {:>9.2} ms",
        format!("indexed ({index_cells} cells read, survivors scored)"),
        indexed_time.as_secs_f64() * 1e3
    );
    println!("\nspeedup {speedup:.0}x, verdicts bit-for-bit identical on every suspect");
    assert!(
        speedup >= 20.0,
        "indexed identification must be >=20x faster than the linear scan \
         at {n} devices (got {speedup:.1}x)"
    );

    let mut criterion = Criterion::default().sample_size(10).configure_from_args();
    criterion.bench_function(&format!("identify/indexed_{n}"), |b| {
        b.iter(|| identify(&verifier, false, &leaked, -6.0))
    });
    criterion.bench_function(&format!("identify/indexed_nearmiss_{n}"), |b| {
        b.iter(|| identify(&verifier, false, &base_only, -6.0))
    });
    criterion.bench_function("identify/manifest_decode", |b| {
        b.iter(|| decode_manifest(&manifest_bytes).expect("decode"))
    });
    criterion.final_summary();
}
